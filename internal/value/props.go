package value

import (
	"iter"
	"slices"
	"strings"
)

// Prop is one entry of a Props list: a property key and its non-null value.
type Prop struct {
	Key string
	Val Value
}

// Props is an immutable property list: the partial function iota(x, .) of
// one node or relationship, stored as entries sorted by key, with no
// duplicate keys and no null values. Every operation that changes a list
// returns a new one and leaves the receiver untouched, and the entries are
// reachable only through read accessors, so one list can be shared by any
// number of holders (graph replicas, detached result entities) without
// copying. The zero Props is the empty list.
//
// A slice of a few entries is a fraction of the size of a Go map holding
// the same pairs, and a lookup over it is a short bisection with no hashing.
type Props struct {
	e []Prop
}

// NewProps builds a list from a map, dropping null values. intern, when not
// nil, maps every key to its canonical copy (the graph's key table), so the
// list does not keep the caller's key strings alive.
func NewProps(m map[string]Value, intern func(string) string) Props {
	n := 0
	for _, v := range m {
		if !IsNull(v) {
			n++
		}
	}
	if n == 0 {
		return Props{}
	}
	e := make([]Prop, 0, n)
	for k, v := range m {
		if IsNull(v) {
			continue
		}
		if intern != nil {
			k = intern(k)
		}
		e = append(e, Prop{Key: k, Val: v})
	}
	slices.SortFunc(e, func(a, b Prop) int { return strings.Compare(a.Key, b.Key) })
	return Props{e: e}
}

// search bisects the list for key. It returns the position of key, or
// where it would be inserted, and whether it is present.
func (p Props) search(key string) (int, bool) {
	lo, hi := 0, len(p.e)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.e[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.e) && p.e[lo].Key == key
}

// Len returns the number of properties in the list.
func (p Props) Len() int { return len(p.e) }

// Get returns the value of key and whether the list defines it.
func (p Props) Get(key string) (Value, bool) {
	if i, ok := p.search(key); ok {
		return p.e[i].Val, true
	}
	return nil, false
}

// Property returns the value of key, or null when the list does not define
// it.
func (p Props) Property(key string) Value {
	if v, ok := p.Get(key); ok {
		return v
	}
	return Null()
}

// All yields the entries in key order.
func (p Props) All() iter.Seq2[string, Value] {
	return func(yield func(string, Value) bool) {
		for _, e := range p.e {
			if !yield(e.Key, e.Val) {
				return
			}
		}
	}
}

// Keys returns the keys in sorted order, in a new slice.
func (p Props) Keys() []string {
	keys := make([]string, len(p.e))
	for i := range p.e {
		keys[i] = p.e[i].Key
	}
	return keys
}

// Map returns the list as a new map.
func (p Props) Map() map[string]Value {
	m := make(map[string]Value, len(p.e))
	for _, e := range p.e {
		m[e.Key] = e.Val
	}
	return m
}

// Shares reports whether p and q are one list (the same entries in the same
// memory), as opposed to equal copies. Two empty lists share.
func (p Props) Shares(q Props) bool {
	return len(p.e) == len(q.e) && (len(p.e) == 0 || &p.e[0] == &q.e[0])
}

// With returns a new list in which key maps to v. A null v removes the key,
// as SET to null does.
func (p Props) With(key string, v Value) Props {
	if IsNull(v) {
		return p.Without(key)
	}
	i, ok := p.search(key)
	if ok {
		out := slices.Clone(p.e)
		out[i].Val = v
		return Props{e: out}
	}
	out := make([]Prop, len(p.e)+1)
	copy(out, p.e[:i])
	out[i] = Prop{Key: key, Val: v}
	copy(out[i+1:], p.e[i:])
	return Props{e: out}
}

// Without returns a list that does not define key: the receiver itself when
// it already does not.
func (p Props) Without(key string) Props {
	i, ok := p.search(key)
	if !ok {
		return p
	}
	if len(p.e) == 1 {
		return Props{}
	}
	out := make([]Prop, len(p.e)-1)
	copy(out, p.e[:i])
	copy(out[i:], p.e[i+1:])
	return Props{e: out}
}
