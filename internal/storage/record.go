// Package storage is an embedded, log-structured key-value store used to
// persist the CulinaryDB corpus and derived artifacts on disk. The paper
// publishes its datasets as an online database
// (http://cosylab.iiitd.edu.in/culinarydb); this package is the durable
// substrate behind our equivalent: append-only data segments with CRC32C
// framing, one in-memory key directory, group-commit batched appends
// (fdatasync into preallocated segments on linux), pread point reads and
// coalesced folds, serial segment replay at Open, tail-truncation crash
// recovery and background incremental compaction with a crash-safe
// manifest, in the style of bitcask. See README.md for the key
// directory, the group-commit protocol, the read and durability paths,
// the recovery ordering invariant and the compaction crash matrix.
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

// parseFrame decodes the framed record at the front of buf. It is the
// only frame parser in the package: the chunked replay reader
// (recordReader.next) and the point-read and fold path
// (decodeFramedValue) both go through it, so they agree on what a valid
// frame is by construction. rec's key and value alias buf. The outcomes:
//
//	err != nil     the frame is invalid within the bytes available
//	               (bad lengths, checksum mismatch, tombstone with a
//	               value); err wraps ErrCorrupt
//	n == 0         buf ends inside the header; nothing is known yet
//	n > len(buf)   the header is sound but buf ends inside the body; n is
//	               the frame's full length
//	otherwise      rec is the record and the frame is buf[:n]
func parseFrame(buf []byte) (rec record, n int, err error) {
	// checksum(4) + flags(1); the shortest header also needs two varint
	// bytes, but Uvarint reports those.
	if len(buf) < 5 {
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
	}
	if rec.tombstone && valLen != 0 {
		return record{}, 0, fmt.Errorf("%w: tombstone with value", ErrCorrupt)
	}
	return rec, n, nil
}

// decodeFramedValue validates buf as exactly one complete framed record
// for wantKey and returns its value without copying (the value aliases
// buf, which the caller owns, and is capped at the record's end).
// wantKey guards against keydir/log skew. This is the allocation-free
// point-read and fold path.
func decodeFramedValue(buf []byte, wantKey string) ([]byte, error) {
	rec, n, err := parseFrame(buf)
	if err != nil {
		return nil, err
	}
	if n != len(buf) {
		return nil, fmt.Errorf("%w: frame of %d bytes in a %d-byte read", ErrCorrupt, n, len(buf))
	}
	if rec.tombstone {
		return nil, fmt.Errorf("%w: keydir points at a tombstone", ErrCorrupt)
	}
	if string(rec.key) != wantKey {
		return nil, fmt.Errorf("%w: keydir points at record for %q, want %q", ErrCorrupt, rec.key, wantKey)
	}
	return rec.value, nil
}

// replayChunkBytes is how much of its source a recordReader fetches per
// Read. A frame larger than this grows the buffer to the frame's size.
const replayChunkBytes = 64 << 10

// recordReader decodes consecutive records from a segment stream. It
// reads the source in replayChunkBytes chunks and parses frames in place,
// so a scan costs one Read per chunk, not several per record, and copies
// nothing out of the chunk.
type recordReader struct {
	src io.Reader
	// buf[pos:end] is fetched but not yet consumed by a decoded record.
	buf      []byte
	pos, end int
	// consumed is the stream offset of buf[pos]: the bytes covered by the
	// records next has returned, never the bytes fetched.
	consumed int64
	// srcErr is the first error src returned (io.EOF at a clean end);
	// nothing is read after it.
	srcErr error
}

// newRecordReader wraps an io.Reader positioned at a segment start.
func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{src: r}
}

// offset returns the stream offset of the next record: the total length
// of the frames decoded so far. A failed next leaves it at the start of
// the frame that failed — the torn-tail truncation point — however far
// past it the reader has fetched.
func (rr *recordReader) offset() int64 { return rr.consumed }

// next decodes one record. It returns io.EOF at a clean end of stream and
// ErrCorrupt (possibly wrapped) for torn or damaged entries, a source
// that fails mid-record included. The record's key and value alias the
// reader's buffer and are valid until the following call.
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
