// Package storage makes a property graph durable: an append-only,
// checksummed write-ahead log (WAL) of the logical mutation records emitted
// by internal/graph, plus point-in-time snapshots of the whole store.
// Recovery loads the most recent valid snapshot and replays the WAL tail on
// top of it; a torn final WAL entry (the result of crashing mid-write) is
// detected by its checksum and truncated away rather than poisoning
// recovery. After a successful snapshot the old log generation is deleted,
// bounding disk use.
//
// Layout of a data directory (one generation N live at a time):
//
//	snapshot-N.snap   full store image, written by Checkpoint
//	wal-N.log         mutations committed since snapshot N
//
// Both file kinds start with an 8-byte magic. Every WAL entry is one
// committed batch (all mutations of one write query), framed as
// [length u32][crc32c u32][payload], so a batch is applied all-or-nothing:
// replay stops at the first frame whose checksum fails. The snapshot body
// uses the same framing, as a header frame followed by record chunks
// (see snapshot.go), so the image size is unbounded; a snapshot loads only
// if every frame checks out and the record count matches its header.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/temporal"
	"repro/internal/value"
)

// ErrCorrupt is returned when a WAL or snapshot payload fails to decode even
// though its checksum matched — i.e. the file was written by an incompatible
// or buggy encoder, not torn by a crash.
var ErrCorrupt = errors.New("storage: corrupt record")

// Value type tags used on disk. The tag space is append-only: never renumber.
const (
	tagNull     = 0
	tagFalse    = 1
	tagTrue     = 2
	tagInt      = 3
	tagFloat    = 4
	tagString   = 5
	tagList     = 6
	tagMap      = 7
	tagDate     = 8
	tagDateTime = 9
	tagDuration = 10
)

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() (uint8, error) {
	if d.remaining() < 1 {
		return 0, ErrCorrupt
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

// count reads an element count and rejects one the remaining bytes cannot
// hold, given that every element takes at least minSize bytes. A payload is
// checksummed, not trusted: a count straight from it must never size an
// allocation, or four bytes could ask for gigabytes.
func (d *decoder) count(minSize int) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minSize) > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCorrupt, n, d.remaining())
	}
	return int(n), nil
}

// Smallest encodings of the counted elements, for decoder.count.
const (
	minValueSize    = 1     // a tag
	minStringSize   = 4     // a length
	minEntrySize    = 4 + 1 // a key and a value
	minMutationSize = 1 + 8 // a kind and an ID, or a kind and two strings
)

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if d.remaining() < int(n) {
		return "", ErrCorrupt
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// encodeValue appends the on-disk form of a Cypher property value. Property
// values are scalars, temporals, lists and maps — graph entities can never
// be stored as properties, so the codec rejects them.
func (e *encoder) encodeValue(v value.Value) error {
	switch t := v.(type) {
	case nil:
		e.u8(tagNull)
	case value.Bool:
		if bool(t) {
			e.u8(tagTrue)
		} else {
			e.u8(tagFalse)
		}
	case value.Int:
		e.u8(tagInt)
		e.i64(int64(t))
	case value.Float:
		e.u8(tagFloat)
		e.u64(math.Float64bits(float64(t)))
	case value.String:
		e.u8(tagString)
		e.str(string(t))
	case value.List:
		e.u8(tagList)
		e.u32(uint32(t.Len()))
		for _, el := range t.Elements() {
			if err := e.encodeValue(el); err != nil {
				return err
			}
		}
	case value.Map:
		e.u8(tagMap)
		keys := t.Keys()
		e.u32(uint32(len(keys)))
		for _, k := range keys {
			e.str(k)
			mv, _ := t.Get(k)
			if err := e.encodeValue(mv); err != nil {
				return err
			}
		}
	case temporal.Date:
		e.u8(tagDate)
		e.i64(int64(t.Year))
		e.u8(uint8(t.Month))
		e.u8(uint8(t.Day))
	case temporal.DateTime:
		e.u8(tagDateTime)
		e.i64(int64(t.Year))
		e.u8(uint8(t.Month))
		e.u8(uint8(t.Day))
		e.u8(uint8(t.Hour))
		e.u8(uint8(t.Minute))
		e.u8(uint8(t.Second))
		e.u32(uint32(t.Nanosecond))
	case temporal.Duration:
		e.u8(tagDuration)
		e.i64(int64(t.Months))
		e.i64(int64(t.Days))
		e.i64(t.Seconds)
		e.i64(t.Nanos)
	default:
		if value.IsNull(v) {
			e.u8(tagNull)
			return nil
		}
		return fmt.Errorf("storage: cannot persist %s property values", v.Kind())
	}
	return nil
}

func (d *decoder) decodeValue() (value.Value, error) {
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return value.Null(), nil
	case tagFalse:
		return value.NewBool(false), nil
	case tagTrue:
		return value.NewBool(true), nil
	case tagInt:
		v, err := d.i64()
		return value.NewInt(v), err
	case tagFloat:
		v, err := d.u64()
		return value.NewFloat(math.Float64frombits(v)), err
	case tagString:
		s, err := d.str()
		return value.NewString(s), err
	case tagList:
		n, err := d.count(minValueSize)
		if err != nil {
			return nil, err
		}
		elems := make([]value.Value, 0, n)
		for i := 0; i < n; i++ {
			el, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			elems = append(elems, el)
		}
		return value.NewListOf(elems), nil
	case tagMap:
		n, err := d.count(minEntrySize)
		if err != nil {
			return nil, err
		}
		entries := make(map[string]value.Value, n)
		for i := 0; i < n; i++ {
			k, err := d.str()
			if err != nil {
				return nil, err
			}
			mv, err := d.decodeValue()
			if err != nil {
				return nil, err
			}
			entries[k] = mv
		}
		return value.NewMap(entries), nil
	case tagDate:
		year, err := d.i64()
		if err != nil {
			return nil, err
		}
		month, err := d.u8()
		if err != nil {
			return nil, err
		}
		day, err := d.u8()
		if err != nil {
			return nil, err
		}
		return temporal.Date{Year: int(year), Month: time.Month(month), Day: int(day)}, nil
	case tagDateTime:
		year, err := d.i64()
		if err != nil {
			return nil, err
		}
		var parts [5]uint8
		for i := range parts {
			if parts[i], err = d.u8(); err != nil {
				return nil, err
			}
		}
		nanos, err := d.u32()
		if err != nil {
			return nil, err
		}
		return temporal.DateTime{
			Date:       temporal.Date{Year: int(year), Month: time.Month(parts[0]), Day: int(parts[1])},
			Hour:       int(parts[2]),
			Minute:     int(parts[3]),
			Second:     int(parts[4]),
			Nanosecond: int(nanos),
		}, nil
	case tagDuration:
		months, err := d.i64()
		if err != nil {
			return nil, err
		}
		days, err := d.i64()
		if err != nil {
			return nil, err
		}
		secs, err := d.i64()
		if err != nil {
			return nil, err
		}
		nanos, err := d.i64()
		if err != nil {
			return nil, err
		}
		return temporal.Duration{Months: int(months), Days: int(days), Seconds: secs, Nanos: nanos}, nil
	default:
		return nil, fmt.Errorf("%w: unknown value tag %d", ErrCorrupt, tag)
	}
}

func (e *encoder) encodeProps(props map[string]value.Value) error {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.str(k)
		if err := e.encodeValue(props[k]); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) decodeProps() (map[string]value.Value, error) {
	n, err := d.count(minEntrySize)
	if err != nil {
		return nil, err
	}
	props := make(map[string]value.Value, n)
	for i := 0; i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.decodeValue()
		if err != nil {
			return nil, err
		}
		props[k] = v
	}
	return props, nil
}

// encodeMutation appends the on-disk form of one logical mutation record.
func (e *encoder) encodeMutation(m graph.Mutation) error {
	e.u8(uint8(m.Kind))
	switch m.Kind {
	case graph.MutCreateNode:
		e.i64(m.ID)
		e.u32(uint32(len(m.Labels)))
		for _, l := range m.Labels {
			e.str(l)
		}
		return e.encodeProps(m.Props)
	case graph.MutDeleteNode, graph.MutDeleteRel:
		e.i64(m.ID)
	case graph.MutCreateRel:
		e.i64(m.ID)
		e.i64(m.Start)
		e.i64(m.End)
		e.str(m.Label)
		return e.encodeProps(m.Props)
	case graph.MutSetNodeProp, graph.MutSetRelProp:
		e.i64(m.ID)
		e.str(m.Key)
		return e.encodeValue(m.Value)
	case graph.MutReplaceNodeProps, graph.MutReplaceRelProps:
		e.i64(m.ID)
		return e.encodeProps(m.Props)
	case graph.MutAddLabel, graph.MutRemoveLabel:
		e.i64(m.ID)
		e.str(m.Label)
	case graph.MutCreateIndex, graph.MutDropIndex:
		e.str(m.Label)
		e.str(m.Key)
	default:
		return fmt.Errorf("storage: cannot encode mutation kind %s", m.Kind)
	}
	return nil
}

func (d *decoder) decodeMutation() (graph.Mutation, error) {
	kind, err := d.u8()
	if err != nil {
		return graph.Mutation{}, err
	}
	m := graph.Mutation{Kind: graph.MutationKind(kind)}
	switch m.Kind {
	case graph.MutCreateNode:
		if m.ID, err = d.i64(); err != nil {
			return m, err
		}
		n, err := d.count(minStringSize)
		if err != nil {
			return m, err
		}
		m.Labels = make([]string, 0, n)
		for i := 0; i < n; i++ {
			l, err := d.str()
			if err != nil {
				return m, err
			}
			m.Labels = append(m.Labels, l)
		}
		m.Props, err = d.decodeProps()
		return m, err
	case graph.MutDeleteNode, graph.MutDeleteRel:
		m.ID, err = d.i64()
		return m, err
	case graph.MutCreateRel:
		if m.ID, err = d.i64(); err != nil {
			return m, err
		}
		if m.Start, err = d.i64(); err != nil {
			return m, err
		}
		if m.End, err = d.i64(); err != nil {
			return m, err
		}
		if m.Label, err = d.str(); err != nil {
			return m, err
		}
		m.Props, err = d.decodeProps()
		return m, err
	case graph.MutSetNodeProp, graph.MutSetRelProp:
		if m.ID, err = d.i64(); err != nil {
			return m, err
		}
		if m.Key, err = d.str(); err != nil {
			return m, err
		}
		m.Value, err = d.decodeValue()
		return m, err
	case graph.MutReplaceNodeProps, graph.MutReplaceRelProps:
		if m.ID, err = d.i64(); err != nil {
			return m, err
		}
		m.Props, err = d.decodeProps()
		return m, err
	case graph.MutAddLabel, graph.MutRemoveLabel:
		if m.ID, err = d.i64(); err != nil {
			return m, err
		}
		m.Label, err = d.str()
		return m, err
	case graph.MutCreateIndex, graph.MutDropIndex:
		if m.Label, err = d.str(); err != nil {
			return m, err
		}
		m.Key, err = d.str()
		return m, err
	default:
		return m, fmt.Errorf("%w: unknown mutation kind %d", ErrCorrupt, kind)
	}
}
