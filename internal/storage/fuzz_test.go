package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// TestDecodeRejectsCountsBeyondPayload feeds payloads whose element counts
// claim far more elements than the bytes that follow could hold. Each must
// fail with ErrCorrupt instead of sizing an allocation from the count (the
// first input used to end the process with "out of memory").
func TestDecodeRejectsCountsBeyondPayload(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	var node encoder // a batch of one CREATE_NODE record: count, kind, ID
	node.u32(1)
	node.u8(uint8(graph.MutCreateNode))
	node.i64(1)
	noLabels := cat(node.buf, []byte{0, 0, 0, 0})
	var prop encoder // one property key, its value still to come
	prop.u32(1)
	prop.str("k")
	oneProp := cat(noLabels, prop.buf)
	cases := map[string][]byte{
		"batch count":                huge,
		"labels":                     cat(node.buf, huge),
		"props":                      cat(noLabels, huge),
		"list":                       cat(oneProp, []byte{tagList}, huge),
		"map":                        cat(oneProp, []byte{tagMap}, huge),
		"labels, one byte too short": cat(node.buf, []byte{2, 0, 0, 0}, make([]byte, 7)),
	}
	for name, in := range cases {
		if _, err := decodeBatch(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeBatch = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSnapshotHeaderCountBoundedByFileSize writes a valid snapshot, then
// re-signs its header frame with a record count of 0xffffffff. readSnapshot
// must answer ErrCorrupt without sizing its record slice from that count.
func TestSnapshotHeaderCountBoundedByFileSize(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"A"}, map[string]value.Value{"k": value.NewInt(1)})
	dir := t.TempDir()
	if _, err := writeSnapshot(dir, buildSnapshotImage(g, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header frame: [length][crc][gen u64, next node i64, next rel i64, count u32].
	frame := raw[len(snapMagic):]
	payload := frame[entryHeaderSize : entryHeaderSize+binary.LittleEndian.Uint32(frame[0:4])]
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 0xffffffff)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = readSnapshot(path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("readSnapshot = %v, want ErrCorrupt", err)
	}
	// The read buffer is 1 MiB; a slice sized from the count would be
	// hundreds of gigabytes.
	if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
		t.Fatalf("readSnapshot allocated %d bytes for a %d-byte file", n, len(raw))
	}
}

// FuzzDecodeBatch checks that no payload panics the batch decoder or makes
// it allocate beyond its input, and that whatever decodes re-encodes to a
// canonical form that decodes to the same records. The committed seed
// corpus, testdata/fuzz/FuzzDecodeBatch, is encodeBatch output of
// allKindsBatch: each record alone and all of them in one batch, covering
// every mutation kind and every value tag. Fuzz it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 10s ./internal/storage
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		muts, err := decodeBatch(in)
		if err != nil {
			return
		}
		canon, err := encodeBatch(muts)
		if err != nil {
			t.Fatalf("decoded records do not re-encode: %v", err)
		}
		again, err := decodeBatch(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if second, _ := encodeBatch(again); !bytes.Equal(second, canon) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", canon, second)
		}
	})
}

// FuzzReadSnapshot checks that no snapshot file panics readSnapshot or makes
// it allocate far beyond the file's size, and that every failure is typed:
// ErrCorrupt, or an end-of-file error for a file shorter than its magic.
// The seeds are the committed golden snapshot and its truncations. Fuzz it
// with
//
//	go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime 10s ./internal/storage
func FuzzReadSnapshot(f *testing.F) {
	golden, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 4, len(snapMagic), len(snapMagic) + entryHeaderSize, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	// A frame header claiming 768 MiB with no body: it used to size the
	// payload buffer from the claim.
	f.Add(append(append([]byte(nil), snapMagic...), 0, 0, 0, 0x30, 0, 0, 0, 0))
	path := filepath.Join(f.TempDir(), snapshotName(1))
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readSnapshot(path)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("untyped error: %v", err)
		}
		// Decoded records may take a few hundred bytes per input byte; an
		// allocation sized from a claimed count or length would not fit.
		if n := after.TotalAlloc - before.TotalAlloc; n > 256*uint64(len(in))+4<<20 {
			t.Fatalf("readSnapshot allocated %d bytes for a %d-byte file", n, len(in))
		}
	})
}
