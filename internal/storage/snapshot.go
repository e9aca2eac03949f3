package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// snapshotImage is the decoded form of a snapshot file: the ID counters plus
// the store contents re-expressed as creation mutations (indexes first, then
// nodes, then relationships, so replaying them in order rebuilds the store).
type snapshotImage struct {
	Gen               uint64
	NextNode, NextRel int64
	Mutations         []graph.Mutation
}

// buildSnapshotImage captures a consistent image of the store. The caller
// must guarantee no concurrent writers (the engine holds its query lock).
func buildSnapshotImage(g *graph.Graph, gen uint64) snapshotImage {
	img := snapshotImage{Gen: gen}
	img.NextNode, img.NextRel = g.IDCounters()
	for _, idx := range g.Indexes() {
		img.Mutations = append(img.Mutations, graph.Mutation{Kind: graph.MutCreateIndex, Label: idx[0], Key: idx[1]})
	}
	for _, n := range g.Nodes() {
		img.Mutations = append(img.Mutations, graph.Mutation{
			Kind:   graph.MutCreateNode,
			ID:     n.ID(),
			Labels: n.Labels(),
			Props:  n.Properties(),
		})
	}
	for _, r := range g.Relationships() {
		img.Mutations = append(img.Mutations, graph.Mutation{
			Kind:  graph.MutCreateRel,
			ID:    r.ID(),
			Start: r.StartNodeID(),
			End:   r.EndNodeID(),
			Label: r.RelType(),
			Props: r.Properties(),
		})
	}
	return img
}

// snapshotChunkTarget is the flush threshold for snapshot record chunks: the
// image is written as a header frame plus a sequence of independently
// checksummed chunk frames, so the whole-image size is unbounded (only a
// single record is subject to maxEntrySize — the same per-record ceiling the
// WAL has). A var so tests can force multi-chunk snapshots cheaply.
var snapshotChunkTarget = 4 << 20

// writeSnapshot writes the image to dir/snapshot-<gen>.snap durably: the
// frames stream to a temp file which is fsynced, renamed into place, and the
// directory fsynced, so the snapshot either exists completely or not at all.
//
// File layout: magic, then framed sections, each [length u32][crc32c u32]
// [payload]. The first frame is the header (gen, ID counters, total record
// count); every further frame is a chunk of records encoded like a WAL batch
// (count + records). readSnapshot requires the frames to account for exactly
// the header's record count — a truncated snapshot never half-loads.
func writeSnapshot(dir string, img snapshotImage) (string, error) {
	final := filepath.Join(dir, snapshotName(img.Gen))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("storage: create snapshot temp: %w", err)
	}
	abort := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	writeFrame := func(payload []byte) error {
		if len(payload) > maxEntrySize {
			// Can only happen for a single gigantic record; reject at write
			// time — readSnapshot would reject it as corrupt.
			return fmt.Errorf("storage: snapshot frame of %d bytes exceeds the %d-byte limit", len(payload), maxEntrySize)
		}
		var hdr [entryHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		if _, err := f.Write(hdr[:]); err != nil {
			return fmt.Errorf("storage: write snapshot: %w", err)
		}
		if _, err := f.Write(payload); err != nil {
			return fmt.Errorf("storage: write snapshot: %w", err)
		}
		return nil
	}

	if _, err := f.Write(snapMagic); err != nil {
		return abort(fmt.Errorf("storage: write snapshot: %w", err))
	}
	var hdr encoder
	hdr.u64(img.Gen)
	hdr.i64(img.NextNode)
	hdr.i64(img.NextRel)
	hdr.u32(uint32(len(img.Mutations)))
	if err := writeFrame(hdr.buf); err != nil {
		return abort(err)
	}
	// Stream the records out in bounded chunks.
	i := 0
	for i < len(img.Mutations) {
		var chunk encoder
		chunk.u32(0) // count, patched below
		count := uint32(0)
		for i < len(img.Mutations) && (count == 0 || len(chunk.buf) < snapshotChunkTarget) {
			if err := chunk.encodeMutation(img.Mutations[i]); err != nil {
				return abort(err)
			}
			count++
			i++
		}
		binary.LittleEndian.PutUint32(chunk.buf[0:4], count)
		if err := writeFrame(chunk.buf); err != nil {
			return abort(err)
		}
	}

	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("storage: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("storage: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("storage: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// Unpublish: an error return must not leave the renamed snapshot
		// behind — the next recovery would prefer it and discard everything
		// committed to the still-live older WAL afterwards.
		os.Remove(final)
		return "", err
	}
	return final, nil
}

// readFrame reads one [length][crc][payload] frame. io.EOF at a frame
// boundary is returned as io.EOF; anything else wrong is ErrCorrupt.
// limit bounds the claimed payload length (the snapshot file's size), so a
// corrupt length never sizes an allocation the file could not fill.
func readFrame(f io.Reader, limit int64) ([]byte, error) {
	var hdr [entryHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxEntrySize || int64(length) > limit {
		return nil, fmt.Errorf("%w: frame length %d out of range", ErrCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated frame body", ErrCorrupt)
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// readSnapshot loads and validates a snapshot file.
func readSnapshot(path string) (snapshotImage, error) {
	var img snapshotImage
	f, err := os.Open(path)
	if err != nil {
		return img, fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return img, fmt.Errorf("storage: stat snapshot: %w", err)
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return img, fmt.Errorf("storage: snapshot too short: %w", err)
	}
	if string(magic) != string(snapMagic) {
		return img, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, magic)
	}
	header, err := readFrame(br, size)
	if err != nil {
		return img, fmt.Errorf("storage: snapshot header: %w", err)
	}
	d := decoder{buf: header}
	if img.Gen, err = d.u64(); err != nil {
		return img, err
	}
	if img.NextNode, err = d.i64(); err != nil {
		return img, err
	}
	if img.NextRel, err = d.i64(); err != nil {
		return img, err
	}
	total, err := d.u32()
	if err != nil {
		return img, err
	}
	if d.remaining() != 0 {
		return img, fmt.Errorf("%w: %d trailing bytes in snapshot header", ErrCorrupt, d.remaining())
	}
	// The record count sizes an allocation, so it must fit the file.
	if int64(total)*minMutationSize > size {
		return img, fmt.Errorf("%w: snapshot header promises %d records in a %d-byte file", ErrCorrupt, total, size)
	}
	img.Mutations = make([]graph.Mutation, 0, total)
	for {
		payload, err := readFrame(br, size)
		if err == io.EOF {
			break
		}
		if err != nil {
			return img, fmt.Errorf("storage: snapshot chunk: %w", err)
		}
		muts, err := decodeBatch(payload)
		if err != nil {
			return img, fmt.Errorf("storage: snapshot chunk: %w", err)
		}
		img.Mutations = append(img.Mutations, muts...)
	}
	if uint32(len(img.Mutations)) != total {
		return img, fmt.Errorf("%w: snapshot has %d records, header promises %d", ErrCorrupt, len(img.Mutations), total)
	}
	return img, nil
}

func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%06d.snap", gen) }
func walName(gen uint64) string      { return fmt.Sprintf("wal-%06d.log", gen) }

// syncDir fsyncs a directory so renames and creations within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}
