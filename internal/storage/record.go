// Package storage is an embedded, log-structured key-value store used to
// persist the CulinaryDB corpus and derived artifacts on disk. The paper
// publishes its datasets as an online database
// (http://cosylab.iiitd.edu.in/culinarydb); this package is the durable
// substrate behind our equivalent: append-only data segments with CRC32C
// framing, a sharded in-memory key directory, group-commit batched
// appends (fdatasync into preallocated segments on linux), pread point
// reads and coalesced folds, parallel segment replay at Open,
// tail-truncation crash recovery and background incremental
// compaction with a crash-safe manifest, in the style of bitcask. See
// README.md for the shard layout, the group-commit protocol, the read
// and durability paths, the recovery ordering invariant and the
// compaction crash matrix.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Framing errors.
var (
	// ErrCorrupt marks a record whose checksum or structure is invalid.
	ErrCorrupt = errors.New("storage: corrupt record")
	// ErrTooLarge marks keys or values above the framing limits.
	ErrTooLarge = errors.New("storage: key or value too large")
)

// Framing limits. Keys index recipes and metadata, so they are short;
// values hold encoded recipes or serialized tables and stay well under a
// segment.
const (
	// MaxKeyLen bounds key size.
	MaxKeyLen = 1 << 10
	// MaxValueLen bounds value size.
	MaxValueLen = 1 << 26
)

// record flags.
const (
	flagTombstone byte = 1 << 0
)

// castagnoli is the CRC32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one framed entry in a segment file:
//
//	crc32c  uint32 LE  over everything after the checksum field
//	flags   byte       bit0 = tombstone
//	keyLen  uvarint
//	valLen  uvarint
//	key     keyLen bytes
//	value   valLen bytes (absent for tombstones)
type record struct {
	key       []byte
	value     []byte
	tombstone bool
}

// appendRecord serializes rec into buf and returns the extended slice.
func appendRecord(buf []byte, rec record) ([]byte, error) {
	if len(rec.key) == 0 || len(rec.key) > MaxKeyLen {
		return buf, fmt.Errorf("%w: key length %d", ErrTooLarge, len(rec.key))
	}
	if len(rec.value) > MaxValueLen {
		return buf, fmt.Errorf("%w: value length %d", ErrTooLarge, len(rec.value))
	}
	var flags byte
	if rec.tombstone {
		flags |= flagTombstone
	}
	var hdr [1 + 2*binary.MaxVarintLen32]byte
	hdr[0] = flags
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(rec.key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(rec.value)))

	crc := crc32.New(castagnoli)
	crc.Write(hdr[:n])
	crc.Write(rec.key)
	crc.Write(rec.value)

	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	buf = append(buf, sum[:]...)
	buf = append(buf, hdr[:n]...)
	buf = append(buf, rec.key...)
	buf = append(buf, rec.value...)
	return buf, nil
}

// decodeFramedValue validates one complete framed record in buf and
// returns its value without copying (the value aliases buf, which the
// caller owns). wantKey guards against keydir/log skew. This is the
// allocation-free point-read path; streaming replay uses recordReader.
func decodeFramedValue(buf []byte, wantKey string) ([]byte, error) {
	if len(buf) < 7 { // checksum + flags + two varint bytes + 1-byte key
		return nil, fmt.Errorf("%w: short record", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(buf[:4])
	if crc32.Checksum(buf[4:], castagnoli) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	flags := buf[4]
	p := 5
	keyLen, n := binary.Uvarint(buf[p:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	p += n
	valLen, n := binary.Uvarint(buf[p:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad value length", ErrCorrupt)
	}
	p += n
	if keyLen == 0 || keyLen > MaxKeyLen || valLen > MaxValueLen ||
		uint64(len(buf)-p) != keyLen+valLen {
		return nil, fmt.Errorf("%w: lengths key=%d value=%d frame=%d", ErrCorrupt, keyLen, valLen, len(buf))
	}
	if flags&flagTombstone != 0 {
		return nil, fmt.Errorf("%w: keydir points at a tombstone", ErrCorrupt)
	}
	key := buf[p : p+int(keyLen)]
	if string(key) != wantKey {
		return nil, fmt.Errorf("%w: keydir points at record for %q, want %q", ErrCorrupt, key, wantKey)
	}
	return buf[p+int(keyLen):], nil
}

// recordReader decodes consecutive records from a segment stream and
// tracks byte offsets so callers can build the key directory.
type recordReader struct {
	r   *countingReader
	buf []byte
}

// newRecordReader wraps an io.Reader positioned at a segment start.
func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{r: &countingReader{r: r}}
}

// offset returns the stream offset of the next record.
func (rr *recordReader) offset() int64 { return rr.r.n }

// next decodes one record. It returns io.EOF at a clean end of stream and
// ErrCorrupt (possibly wrapped) for torn or damaged entries.
func (rr *recordReader) next() (record, error) {
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
	br := &byteReaderFrom{r: tee}
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

// countingReader counts bytes consumed from the underlying reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// byteReaderFrom adapts an io.Reader to io.ByteReader for ReadUvarint.
type byteReaderFrom struct {
	r io.Reader
}

func (b *byteReaderFrom) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}
