package storage

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeRecord drives both record decoders — the zero-copy point
// read (decodeFramedValue) and the chunked replay reader (recordReader),
// two callers of the one frame parser — with three classes of input:
//
//  1. arbitrary bytes: neither decoder may panic, anything they accept
//     must respect the framing bounds, and the replay reader must
//     decode them exactly as the reference reader (reference_test.go)
//     does, stopping with the same error class at the same offset;
//  2. well-formed frames: both decoders must round-trip them exactly;
//  3. single-bit corruptions of well-formed frames: both decoders must
//     reject them — the CRC32C covers every byte after the checksum
//     field, so a corrupt frame must never be mis-read as valid data.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte("recipe/0001"), []byte("tomato basil mozzarella"), false, uint16(0), []byte{})
	f.Add([]byte("k"), []byte{}, false, uint16(13), []byte("\x00\x01\x02\x03"))
	f.Add([]byte("meta/format"), []byte(nil), true, uint16(99), []byte("garbage that is not a frame"))
	f.Add([]byte("key"), bytes.Repeat([]byte{0xAB}, 300), false, uint16(2048), bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, key, value []byte, tomb bool, flip uint16, raw []byte) {
		// Class 1: raw bytes must never panic or yield out-of-bounds
		// records.
		if val, err := decodeFramedValue(raw, string(key)); err == nil {
			if len(val) > MaxValueLen {
				t.Fatalf("decodeFramedValue accepted value of %d bytes", len(val))
			}
		}
		assertReaderSane(t, raw)

		// Classes 2 and 3 need an encodable record.
		if len(key) == 0 || len(key) > MaxKeyLen || len(value) > MaxValueLen {
			return
		}
		if tomb {
			value = nil
		}
		frame, err := appendRecord(nil, record{key: key, value: value, tombstone: tomb})
		if err != nil {
			t.Fatalf("appendRecord rejected in-bounds record: %v", err)
		}

		// Class 2: exact round trips.
		if !tomb {
			val, err := decodeFramedValue(frame, string(key))
			if err != nil {
				t.Fatalf("decodeFramedValue rejected its own encoding: %v", err)
			}
			if !bytes.Equal(val, value) {
				t.Fatalf("decodeFramedValue = %q, want %q", val, value)
			}
		}
		rec, err := newRecordReader(bytes.NewReader(frame)).next()
		if err != nil {
			t.Fatalf("recordReader rejected its own encoding: %v", err)
		}
		if !bytes.Equal(rec.key, key) || !bytes.Equal(rec.value, value) || rec.tombstone != tomb {
			t.Fatalf("recordReader round trip = (%q, %q, %v), want (%q, %q, %v)",
				rec.key, rec.value, rec.tombstone, key, value, tomb)
		}

		// Class 3: flip one bit anywhere in the frame; both decoders
		// must reject, never mis-read.
		corrupt := append([]byte(nil), frame...)
		bit := int(flip) % (len(corrupt) * 8)
		corrupt[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeFramedValue(corrupt, string(key)); err == nil {
			t.Fatalf("decodeFramedValue accepted frame with bit %d flipped", bit)
		}
		if _, err := newRecordReader(bytes.NewReader(corrupt)).next(); err == nil {
			t.Fatalf("recordReader accepted frame with bit %d flipped", bit)
		}
	})
}

// assertReaderSane streams arbitrary bytes through recordReader:
// however mangled the input, every record it yields must be within the
// framing bounds, it must terminate, and the scan must equal the
// reference reader's.
func assertReaderSane(t *testing.T, raw []byte) {
	t.Helper()
	assertSameScan(t, "fuzz input", func() io.Reader { return bytes.NewReader(raw) })
	rr := newRecordReader(bytes.NewReader(raw))
	for {
		rec, err := rr.next()
		if err == io.EOF || err != nil {
			return
		}
		if len(rec.key) == 0 || len(rec.key) > MaxKeyLen || len(rec.value) > MaxValueLen {
			t.Fatalf("recordReader yielded out-of-bounds record: key %d bytes, value %d bytes",
				len(rec.key), len(rec.value))
		}
		if rec.tombstone && len(rec.value) != 0 {
			t.Fatal("recordReader yielded tombstone with value")
		}
	}
}
