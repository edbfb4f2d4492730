// Package storage persists the CulinaryDB corpus: the paper publishes
// its datasets as an online database
// (http://cosylab.iiitd.edu.in/culinarydb), and this package is the
// durable substrate behind our equivalent. A store directory holds one
// checkpoint — the corpus image at a version, CRC32C-framed, written
// by temp file, fsync and rename — and one append-only log of the
// records written after it, fdatasynced into a preallocated file. Boot
// reads the checkpoint and replays the log; a checkpoint from memory
// replaces both once the log has grown as large as the checkpoint.
// No request reads storage: the server answers from the in-memory
// corpus. See README.md for the file layout, the lock order and the
// crash invariants.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Framing errors: a record whose checksum or structure is invalid, a
// key or value above the framing limits.
var (
	ErrCorrupt  = errors.New("storage: corrupt record")
	ErrTooLarge = errors.New("storage: key or value too large")
)

// Framing limits. Keys index recipes and metadata, so they are short;
// values hold encoded recipes, version records and write batches.
const (
	MaxKeyLen   = 1 << 10
	MaxValueLen = 1 << 26
)

// record flags.
const (
	flagTombstone byte = 1 << 0
	// flagBatch marks a frame whose value is a whole WriteBatch: the
	// concatenated frames of its records. One checksum covers the
	// group, so a torn group replays as nothing, never as a prefix.
	flagBatch byte = 1 << 1
)

// batchKey keys a batch frame.
const batchKey = "batch"

// castagnoli is the CRC32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// record is one framed entry in a checkpoint or log file:
//
//	crc32c  uint32 LE  over everything after the checksum field
//	flags   byte       bit0 = tombstone, bit1 = batch
//	keyLen  uvarint
//	valLen  uvarint
//	key     keyLen bytes
//	value   valLen bytes (absent for tombstones)
type record struct {
	key       []byte
	value     []byte
	tombstone bool
	batch     bool
}

// appendRecord serializes rec into buf and returns the extended slice.
func appendRecord(buf []byte, rec record) ([]byte, error) {
	if len(rec.key) == 0 || len(rec.key) > MaxKeyLen {
		return buf, fmt.Errorf("%w: key length %d", ErrTooLarge, len(rec.key))
	}
	if len(rec.value) > MaxValueLen {
		return buf, fmt.Errorf("%w: value length %d", ErrTooLarge, len(rec.value))
	}
	var hdr [1 + 2*binary.MaxVarintLen32]byte
	if rec.tombstone {
		hdr[0] |= flagTombstone
	}
	if rec.batch {
		hdr[0] |= flagBatch
	}
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

// parseFrame decodes the framed record at the front of buf; every
// reader in the package goes through it, so they agree on what a valid
// frame is. rec's key and value alias buf. The outcomes:
//
//	err != nil     the frame is invalid (bad lengths, checksum mismatch,
//	               tombstone with a value); err wraps ErrCorrupt
//	n == 0         buf ends inside the header; nothing is known yet
//	n > len(buf)   buf ends inside the body; n is the frame's length
//	otherwise      rec is the record and the frame is buf[:n]
func parseFrame(buf []byte) (rec record, n int, err error) {
	if len(buf) < 5 { // checksum and flags; Uvarint reports the rest
		return record{}, 0, nil
	}
	p := 5
	keyLen, w := binary.Uvarint(buf[p:])
	if w == 0 {
		return record{}, 0, nil
	}
	if w < 0 {
		return record{}, 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	p += w
	valLen, w := binary.Uvarint(buf[p:])
	if w == 0 {
		return record{}, 0, nil
	}
	if w < 0 {
		return record{}, 0, fmt.Errorf("%w: bad value length", ErrCorrupt)
	}
	p += w
	if keyLen == 0 || keyLen > MaxKeyLen || valLen > MaxValueLen {
		return record{}, 0, fmt.Errorf("%w: lengths key=%d value=%d", ErrCorrupt, keyLen, valLen)
	}
	n = p + int(keyLen) + int(valLen)
	if len(buf) < n {
		return record{}, n, nil
	}
	if crc32.Checksum(buf[4:n], castagnoli) != binary.LittleEndian.Uint32(buf[:4]) {
		return record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rec = record{
		key:       buf[p : p+int(keyLen) : p+int(keyLen)],
		value:     buf[p+int(keyLen) : n : n],
		tombstone: buf[4]&flagTombstone != 0,
		batch:     buf[4]&flagBatch != 0,
	}
	if rec.tombstone && valLen != 0 {
		return record{}, 0, fmt.Errorf("%w: tombstone with value", ErrCorrupt)
	}
	return rec, n, nil
}

// eachRecord calls fn on rec, or on every record inside rec when it is
// a batch frame, with each one's offset and length inside rec's value
// (0 and the value's length for a plain record).
func eachRecord(rec record, fn func(rec record, off, n int) error) error {
	if !rec.batch {
		return fn(rec, 0, len(rec.value))
	}
	for off := 0; off < len(rec.value); {
		inner, n, err := parseFrame(rec.value[off:])
		if err == nil && (n == 0 || n > len(rec.value)-off || inner.batch) {
			err = fmt.Errorf("%w: bad record inside a batch", ErrCorrupt)
		}
		if err != nil {
			return err
		}
		if err := fn(inner, off, n); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// decodeFramedValue validates buf as exactly one live record for
// wantKey (a guard against index/file skew) and returns its value,
// which aliases buf.
func decodeFramedValue(buf []byte, wantKey string) ([]byte, error) {
	rec, n, err := parseFrame(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("%w: frame of %d bytes in a %d-byte read", ErrCorrupt, n, len(buf))
	}
	if rec.tombstone {
		return nil, fmt.Errorf("%w: index points at a tombstone", ErrCorrupt)
	}
	if string(rec.key) != wantKey {
		return nil, fmt.Errorf("%w: index points at record for %q, want %q", ErrCorrupt, rec.key, wantKey)
	}
	return rec.value, nil
}

// replayChunkBytes is how much of its source a recordReader fetches per
// Read. A frame larger than this grows the buffer to the frame's size.
const replayChunkBytes = 64 << 10

// recordReader decodes consecutive records from a file. It reads the
// source in replayChunkBytes chunks and parses frames in place, so a
// scan costs one Read per chunk, not several per record.
type recordReader struct {
	src      io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is fetched but not yet decoded
	consumed int64 // the stream offset of buf[pos]
	srcErr   error // the first error src returned (io.EOF at a clean end)
}

// newRecordReader wraps an io.Reader positioned at a file's start.
func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{src: r}
}

// offset returns the stream offset of the next record. A failed next
// leaves it at the start of the frame that failed — the torn-tail
// truncation point — however far past it the reader has fetched.
func (rr *recordReader) offset() int64 { return rr.consumed }

// next decodes one record: io.EOF at a clean end of stream, ErrCorrupt
// for a torn or damaged frame (a source failing mid-record included).
// The record aliases the reader's buffer until the following call.
func (rr *recordReader) next() (record, error) {
	for {
		avail := rr.buf[rr.pos:rr.end]
		rec, n, err := parseFrame(avail)
		if err != nil {
			return record{}, err
		}
		if n > 0 && n <= len(avail) {
			rr.pos += n
			rr.consumed += int64(n)
			return rec, nil
		}
		if rr.srcErr != nil {
			if len(avail) == 0 && rr.srcErr == io.EOF {
				return record{}, io.EOF
			}
			return record{}, fmt.Errorf("%w: truncated record, %d bytes of it present: %v", ErrCorrupt, len(avail), rr.srcErr)
		}
		rr.fill(n)
	}
}

// fill moves the unconsumed bytes to the front of the buffer and reads
// once into the space behind them. frame, when positive, is the length
// of the frame the buffer must be able to hold whole.
func (rr *recordReader) fill(frame int) {
	if size := max(frame, replayChunkBytes); size > len(rr.buf) {
		grown := make([]byte, size)
		copy(grown, rr.buf[rr.pos:rr.end])
		rr.buf = grown
	} else {
		copy(rr.buf, rr.buf[rr.pos:rr.end])
	}
	rr.end -= rr.pos
	rr.pos = 0
	n, err := rr.src.Read(rr.buf[rr.end:])
	rr.end += n
	if err == nil && n == 0 {
		err = io.ErrNoProgress
	}
	rr.srcErr = err
}
