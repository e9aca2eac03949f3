package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/graph"
)

var (
	walMagic  = []byte("CYWAL001")
	snapMagic = []byte("CYSNAP01")
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
)

const (
	// entryHeaderSize is [length u32][crc32c u32].
	entryHeaderSize = 8
	// maxEntrySize bounds a single committed batch; a length field beyond it
	// is treated as a torn/garbage tail rather than an allocation request.
	maxEntrySize = 1 << 30
)

// walFile is an append-only log of committed mutation batches. Appends are
// serialized by a mutex; fsyncs use leader-based group commit so several
// committers queued behind one another are covered by a single Sync call.
type walFile struct {
	path string

	mu     sync.Mutex // guards f, size and broken during appends and rotation
	f      *os.File
	size   int64 // bytes written (logical end of file)
	broken bool  // a partial append left undefined bytes at the end

	syncMu sync.Mutex // serializes fsyncs; also guards synced
	synced int64      // bytes known durable
}

// createWAL creates a fresh WAL file with the magic header.
func createWAL(path string) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create wal: %w", err)
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: sync wal header: %w", err)
	}
	size := int64(len(walMagic))
	return &walFile{path: path, f: f, size: size, synced: size}, nil
}

// openWALForAppend opens an existing WAL positioned after its last valid
// entry (validEnd, as reported by replayWAL); any torn tail beyond it is
// truncated away first.
func openWALForAppend(path string, validEnd int64) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: sync truncated wal: %w", err)
	}
	return &walFile{path: path, f: f, size: validEnd, synced: validEnd}, nil
}

// append writes one framed entry and returns the logical end offset the
// caller must sync to for the entry to be durable. Oversized payloads are
// rejected HERE, at write time: acknowledging an entry that replay would
// misdiagnose as a torn tail (and truncate) would be silent data loss.
func (w *walFile) append(payload []byte) (int64, error) {
	if len(payload) > maxEntrySize {
		return 0, fmt.Errorf("storage: batch of %d bytes exceeds the %d-byte WAL entry limit (split the write into smaller queries)", len(payload), maxEntrySize)
	}
	var hdr [entryHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("storage: wal is closed")
	}
	if w.broken {
		return 0, fmt.Errorf("storage: wal has a partially-written entry at its end")
	}
	if _, err := w.f.Write(hdr[:]); err != nil {
		// The header may be partially on disk; appending after it would bury
		// committed entries behind what recovery diagnoses as a torn tail.
		w.broken = true
		return 0, fmt.Errorf("storage: append wal entry: %w", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		w.broken = true
		return 0, fmt.Errorf("storage: append wal entry: %w", err)
	}
	w.size += int64(entryHeaderSize + len(payload))
	return w.size, nil
}

// syncTo makes the log durable at least up to offset off. Group commit:
// whoever gets the sync lock first syncs the whole file; waiters that queued
// behind it usually find their offset already covered and return without
// issuing another fsync. Returns whether this call issued the fsync itself.
func (w *walFile) syncTo(off int64) (bool, error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= off {
		return false, nil
	}
	w.mu.Lock()
	target := w.size
	f := w.f
	w.mu.Unlock()
	if f == nil {
		return false, fmt.Errorf("storage: wal is closed")
	}
	if err := f.Sync(); err != nil {
		return false, fmt.Errorf("storage: wal fsync: %w", err)
	}
	w.synced = target
	return true, nil
}

// end returns the current logical end offset.
func (w *walFile) end() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// close syncs and closes the file. Lock order (syncMu then mu) matches
// syncTo, and synced is advanced on success so a committer whose fsync was
// overtaken by rotation (Checkpoint closed this generation after its batch
// was appended) sees its offset covered instead of a closed-file error.
func (w *walFile) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if err == nil {
		w.synced = w.size
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// walEntry is one decoded WAL frame, as seen by replay and the dump tool.
type walEntry struct {
	Offset    int64
	Length    int
	Mutations []graph.Mutation
}

// replayWAL reads entries from a WAL file until EOF or the first torn/corrupt
// frame, invoking apply for each decoded batch. It returns the offset just
// past the last valid entry (the append position), whether a torn tail was
// cut short, and the total number of mutation records seen.
func replayWAL(path string, apply func(walEntry) error) (validEnd int64, torn bool, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, 0, fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()

	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return 0, false, 0, fmt.Errorf("storage: wal too short for header: %w", err)
	}
	if string(magic) != string(walMagic) {
		return 0, false, 0, fmt.Errorf("%w: bad wal magic %q", ErrCorrupt, magic)
	}
	off := int64(len(walMagic))
	for {
		var hdr [entryHeaderSize]byte
		n, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return off, false, records, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			return off, n > 0, records, nil // torn header
		}
		if err != nil {
			return 0, false, records, fmt.Errorf("storage: read wal entry header: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxEntrySize {
			return off, true, records, nil // garbage length: treat as torn tail
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, true, records, nil // torn payload
			}
			return 0, false, records, fmt.Errorf("storage: read wal entry payload: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != wantCRC {
			return off, true, records, nil // torn or bit-rotted entry
		}
		muts, err := decodeBatch(payload)
		if err != nil {
			// The checksum matched but the payload does not decode: this is
			// not a torn write, it is a real corruption (or version skew).
			return 0, false, records, fmt.Errorf("storage: wal entry at offset %d: %w", off, err)
		}
		entry := walEntry{Offset: off, Length: len(payload), Mutations: muts}
		if apply != nil {
			if err := apply(entry); err != nil {
				return 0, false, records, err
			}
		}
		records += len(muts)
		off += int64(entryHeaderSize) + int64(length)
	}
}

// encodeBatch frames a slice of mutations as one WAL entry payload.
func encodeBatch(muts []graph.Mutation) ([]byte, error) {
	var e encoder
	e.u32(uint32(len(muts)))
	for _, m := range muts {
		if err := e.encodeMutation(m); err != nil {
			return nil, err
		}
	}
	return e.buf, nil
}

func decodeBatch(payload []byte) ([]graph.Mutation, error) {
	d := decoder{buf: payload}
	n, err := d.count(minMutationSize)
	if err != nil {
		return nil, err
	}
	muts := make([]graph.Mutation, 0, n)
	for i := 0; i < n; i++ {
		m, err := d.decodeMutation()
		if err != nil {
			return nil, err
		}
		muts = append(muts, m)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in wal entry", ErrCorrupt, d.remaining())
	}
	return muts, nil
}
