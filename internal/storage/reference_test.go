package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
)

// referenceRecordReader is recordReader as it stood before the chunked
// replay kernel, next verbatim: it pulls each field of each frame out of
// its source with a read of its own (checksum, flag byte, the varints a
// byte at a time, body) and copies key and value out. It is the
// definition of what a segment stream decodes to; the chunked reader is
// held to it record for record, error for error, offset for offset.
type referenceRecordReader struct {
	r   *referenceCountingReader
	buf []byte
}

func newReferenceRecordReader(r io.Reader) *referenceRecordReader {
	return &referenceRecordReader{r: &referenceCountingReader{r: r}}
}

// offset returns the bytes pulled from the source so far; callers only
// ever read it between records, where it is the next record's offset.
func (rr *referenceRecordReader) offset() int64 { return rr.r.n }

func (rr *referenceRecordReader) next() (record, error) {
	var sum [4]byte
	if _, err := io.ReadFull(rr.r, sum[:]); err != nil {
		if err == io.EOF {
			return record{}, io.EOF
		}
		return record{}, fmt.Errorf("%w: truncated checksum: %v", ErrCorrupt, err)
	}
	want := binary.LittleEndian.Uint32(sum[:])

	crc := crc32.New(castagnoli)
	tee := io.TeeReader(rr.r, crc)

	var flags [1]byte
	if _, err := io.ReadFull(tee, flags[:]); err != nil {
		return record{}, fmt.Errorf("%w: truncated flags: %v", ErrCorrupt, err)
	}
	br := &referenceByteReader{r: tee}
	keyLen, err := binary.ReadUvarint(br)
	if err != nil {
		return record{}, fmt.Errorf("%w: bad key length: %v", ErrCorrupt, err)
	}
	valLen, err := binary.ReadUvarint(br)
	if err != nil {
		return record{}, fmt.Errorf("%w: bad value length: %v", ErrCorrupt, err)
	}
	if keyLen == 0 || keyLen > MaxKeyLen || valLen > MaxValueLen {
		return record{}, fmt.Errorf("%w: lengths key=%d value=%d", ErrCorrupt, keyLen, valLen)
	}
	need := int(keyLen + valLen)
	if cap(rr.buf) < need {
		rr.buf = make([]byte, need)
	}
	body := rr.buf[:need]
	if _, err := io.ReadFull(tee, body); err != nil {
		return record{}, fmt.Errorf("%w: truncated body: %v", ErrCorrupt, err)
	}
	if crc.Sum32() != want {
		return record{}, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec := record{
		key:       append([]byte(nil), body[:keyLen]...),
		value:     append([]byte(nil), body[keyLen:]...),
		tombstone: flags[0]&flagTombstone != 0,
	}
	if rec.tombstone && valLen != 0 {
		return record{}, fmt.Errorf("%w: tombstone with value", ErrCorrupt)
	}
	return rec, nil
}

type referenceCountingReader struct {
	r io.Reader
	n int64
}

func (c *referenceCountingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type referenceByteReader struct {
	r io.Reader
}

func (b *referenceByteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// scannedRecord is what replay keeps of one record.
type scannedRecord struct {
	key         string
	valLen      int
	tombstone   bool
	off, length int64
}

// scanOutcome is a whole scan: the records decoded, then how and where
// it stopped ("eof" at a clean end; otherwise the failing frame's offset).
type scanOutcome struct {
	recs   []scannedRecord
	class  string
	failAt int64
}

func errClass(err error) string {
	switch {
	case err == io.EOF:
		return "eof"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	default:
		return "other: " + err.Error()
	}
}

// recordStream is the face the two readers share.
type recordStream interface {
	offset() int64
	next() (record, error)
}

func scanAll(rr recordStream) scanOutcome {
	var out scanOutcome
	for {
		off := rr.offset()
		rec, err := rr.next()
		if err != nil {
			out.class, out.failAt = errClass(err), off
			return out
		}
		out.recs = append(out.recs, scannedRecord{
			key: string(rec.key), valLen: len(rec.value), tombstone: rec.tombstone,
			off: off, length: rr.offset() - off,
		})
	}
}

// assertSameScan decodes the stream src yields (src is called once per
// reader) with both readers and fails on any difference.
func assertSameScan(t *testing.T, what string, src func() io.Reader) scanOutcome {
	t.Helper()
	want := scanAll(newReferenceRecordReader(src()))
	got := scanAll(newRecordReader(src()))
	if got.class != want.class || got.failAt != want.failAt {
		t.Fatalf("%s: stopped with %s at %d, reference %s at %d", what, got.class, got.failAt, want.class, want.failAt)
	}
	if !reflect.DeepEqual(got.recs, want.recs) {
		for i := range want.recs {
			if i >= len(got.recs) || got.recs[i] != want.recs[i] {
				t.Fatalf("%s: record %d differs from the reference (%d vs %d records)", what, i, len(got.recs), len(want.recs))
			}
		}
		t.Fatalf("%s: %d records, reference %d", what, len(got.recs), len(want.recs))
	}
	return want
}

// referenceSegment frames n small records — every seventh a tombstone,
// keys cycling so most are replacements, value sizes varying from empty
// up — and returns the bytes.
func referenceSegment(t testing.TB, n int) []byte {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		rec := record{key: []byte(fmt.Sprintf("recipe/%08d", i%(n/3+1)))}
		if i%7 == 3 {
			rec.tombstone = true
		} else {
			rec.value = bytes.Repeat([]byte{byte(i)}, (i*37)%150)
		}
		var err error
		if buf, err = appendRecord(buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// failingReader yields data and then fails with err in the same call
// that returns the last bytes, as a disk going bad mid-read does.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n := copy(p, f.data)
	f.data = f.data[n:]
	if len(f.data) == 0 {
		return n, f.err
	}
	return n, nil
}

// TestRecordReaderMatchesReferenceExhaustive damages a small segment in
// every way one byte can — each truncation, each flip, a source error
// after each byte — and feeds it whole, a byte per read and seven bytes
// per read, so a fetch boundary lands on every byte of every frame. The
// chunked reader must agree with the reference throughout, and the
// log's tail repair (scanFile, then a truncate where it says the valid
// prefix ends, as Open does) must cut the file where the reference says
// the first bad frame starts.
func TestRecordReaderMatchesReferenceExhaustive(t *testing.T) {
	seg := referenceSegment(t, 30)
	sources := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"1-byte reads", iotest.OneByteReader},
		{"7-byte reads", func(r io.Reader) io.Reader { return &shortReader{r: r, max: 7} }},
	}
	path := filepath.Join(t.TempDir(), "seg")
	checkRepair := func(what string, data []byte, want scanOutcome) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantSize := int64(len(data))
		if want.class != "eof" {
			wantSize = want.failAt
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n := 0
		size, records, torn, err := scanFile(f, func(record, int64, int64) error { n++; return nil })
		if err == nil && torn {
			err = f.Truncate(size)
		}
		if err != nil || size != wantSize || n != len(want.recs) || records != n {
			t.Fatalf("%s: scanFile = %d, %v after %d records; reference %d after %d", what, size, err, n, wantSize, len(want.recs))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != wantSize {
			t.Fatalf("%s: file is %d bytes after repair (%v), want %d", what, fi.Size(), err, wantSize)
		}
		if _, _, torn, err := scanFile(f, func(record, int64, int64) error { return nil }); err != nil || torn {
			t.Fatalf("%s: repaired file does not scan clean: %v", what, err)
		}
	}

	for cut := 0; cut <= len(seg); cut++ {
		data := seg[:cut]
		var want scanOutcome
		for _, s := range sources {
			want = assertSameScan(t, fmt.Sprintf("truncated to %d, %s", cut, s.name),
				func() io.Reader { return s.wrap(bytes.NewReader(data)) })
		}
		checkRepair(fmt.Sprintf("truncated to %d", cut), data, want)
		if cut > 0 {
			assertSameScan(t, fmt.Sprintf("source fails after %d bytes", cut),
				func() io.Reader { return &failingReader{data: data, err: errInjectedCrash} })
		}
	}
	for at := range seg {
		data := append([]byte(nil), seg...)
		data[at] ^= 0xFF
		var want scanOutcome
		for _, s := range sources {
			want = assertSameScan(t, fmt.Sprintf("byte %d flipped, %s", at, s.name),
				func() io.Reader { return s.wrap(bytes.NewReader(data)) })
		}
		if want.class != "corrupt" {
			t.Fatalf("byte %d flipped: reference scan ended with %s", at, want.class)
		}
		checkRepair(fmt.Sprintf("byte %d flipped", at), data, want)
	}
}

// shortReader returns at most max bytes per Read.
type shortReader struct {
	r   io.Reader
	max int
}

func (s *shortReader) Read(p []byte) (int, error) {
	if len(p) > s.max {
		p = p[:s.max]
	}
	return s.r.Read(p)
}

// TestRecordReaderMatchesReferenceAcrossChunks is the same comparison on
// a segment many chunks long: small records past the first chunk
// boundary, then a 1 MiB value straddling the next sixteen, then small
// records again. Damage is placed around every chunk boundary, on the
// large frame's header and last bytes, and at a stride through the rest.
func TestRecordReaderMatchesReferenceAcrossChunks(t *testing.T) {
	const before, after = 1000, 300
	seg := referenceSegment(t, before)
	if len(seg) <= replayChunkBytes {
		t.Fatalf("small records span %d bytes; the first chunk boundary (%d) must fall among them", len(seg), replayChunkBytes)
	}
	bigAt := len(seg)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	seg, err := appendRecord(seg, record{key: []byte("meta/big"), value: big})
	if err != nil {
		t.Fatal(err)
	}
	bigEnd := len(seg)
	seg = append(seg, referenceSegment(t, after)...)

	want := assertSameScan(t, "intact", func() io.Reader { return bytes.NewReader(seg) })
	if want.class != "eof" || len(want.recs) != before+1+after {
		t.Fatalf("intact segment: %d records, ended with %s", len(want.recs), want.class)
	}

	spots := map[int]bool{}
	around := func(p, radius int) {
		for q := p - radius; q <= p+radius; q++ {
			if q >= 0 && q < len(seg) {
				spots[q] = true
			}
		}
	}
	for b := replayChunkBytes; b < len(seg); b += replayChunkBytes {
		around(b, 2)
	}
	around(bigAt, 12)
	around(bigEnd, 6)
	around(len(seg)-1, 6)
	for p := 0; p < len(seg); p += 37_123 {
		spots[p] = true
	}
	for at := range spots {
		assertSameScan(t, fmt.Sprintf("truncated to %d", at), func() io.Reader { return bytes.NewReader(seg[:at]) })
		seg[at] ^= 0xFF
		assertSameScan(t, fmt.Sprintf("byte %d flipped", at), func() io.Reader { return bytes.NewReader(seg) })
		seg[at] ^= 0xFF
	}
}

// readCounter counts the reads its file serves, through either face.
type readCounter struct {
	*os.File
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.File.Read(p)
}

func (c *readCounter) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.File.ReadAt(p, off)
}

// TestScanReadBudget pins what the chunked reader is for: walking a
// file of framed records — a segment of the log, replayed by Open and
// the scrubber ("scanSegment"), or a checkpoint, which Open and the
// scrubber verify with one read ("verifySegment") — costs one read per
// chunk (plus the one cut short by a frame carried over and the one
// that finds the end), not several per record. The reference reader
// issues five per record on the same file.
func TestScanReadBudget(t *testing.T) {
	const records = 10_000
	var seg []byte
	for i := 0; i < records; i++ {
		var err error
		seg, err = appendRecord(seg, record{
			key:   []byte(fmt.Sprintf("recipe/%08d", i)),
			value: bytes.Repeat([]byte{byte(i)}, 40+i%50),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "seg")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	budget := (len(seg)+replayChunkBytes-1)/replayChunkBytes + 2
	open := func(t *testing.T) *readCounter {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return &readCounter{File: f}
	}

	t.Run("scanSegment", func(t *testing.T) {
		src, n := open(t), 0
		size, _, torn, err := scanFile(src, func(record, int64, int64) error { n++; return nil })
		if err != nil || torn || size != int64(len(seg)) || n != records {
			t.Fatalf("scanFile = %d, %v after %d records; want %d after %d", size, err, n, len(seg), records)
		}
		if src.reads > budget {
			t.Errorf("%d reads for %d records in %d bytes, budget %d", src.reads, records, len(seg), budget)
		}
	})
	t.Run("verifySegment", func(t *testing.T) {
		hdr := binary.AppendUvarint(binary.AppendUvarint(nil, 1), records)
		img, _ := appendRecord(nil, record{key: []byte(formatKey), value: []byte(checkpointFormat)})
		img, _ = appendRecord(img, record{key: []byte(headerKey), value: hdr})
		img = append(img, seg...)
		ckpt := filepath.Join(t.TempDir(), "ckpt")
		if err := os.WriteFile(ckpt, img, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		src := &readCounter{File: f}
		info, err := verifyCheckpoint(src, int64(len(img)))
		if err != nil || info.gen != 1 || info.bytes != int64(len(img)) {
			t.Fatalf("verifyCheckpoint = %+v, %v", info, err)
		}
		if src.reads > budget {
			t.Errorf("%d reads for %d records in %d bytes, budget %d", src.reads, records, len(img), budget)
		}
	})
	t.Run("reference", func(t *testing.T) {
		src := open(t)
		if out := scanAll(newReferenceRecordReader(src)); len(out.recs) != records || src.reads < 5*records {
			t.Fatalf("reference reader: %d records in %d reads; the budget above is not measuring what it claims", len(out.recs), src.reads)
		}
	})
}
