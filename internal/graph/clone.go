package graph

import (
	"fmt"

	"repro/internal/value"
)

// Clone builds an independent copy of the graph: same entity identifiers,
// labels, properties, relationships, declared indexes, ID counters and
// mutation epoch, sharing no mutable structure with the source. Property
// lists and label slices are immutable, so the copy holds the source's own
// instead of copies. The copy's name table holds the source's strings for
// the names its entities use, and drops names no entity uses any more. It is
// built from the same Apply records WAL recovery uses, so indexes and
// statistics come out identical to a recovered store.
//
// Clone only reads the source, taking its usual read locks, so concurrent
// readers of the source are fine; the caller must exclude concurrent writers
// (the MVCC store clones under the engine's write mutex).
func (g *Graph) Clone() *Graph {
	c := NewNamed(g.Name())
	for _, idx := range g.Indexes() {
		c.CreateIndex(idx[0], idx[1])
	}
	// c is not shared yet, so its name table needs no lock.
	for _, n := range g.Nodes() {
		for _, l := range n.labels {
			c.adopt(l)
		}
		for k := range n.props.All() {
			c.adopt(k)
		}
		if err := c.Apply(Mutation{Kind: MutCreateNode, ID: n.id, Labels: n.labels, list: n.props, listSet: true}); err != nil {
			panic(fmt.Sprintf("graph: clone of consistent graph failed: %v", err))
		}
	}
	for _, r := range g.Relationships() {
		c.adopt(r.typ)
		for k := range r.props.All() {
			c.adopt(k)
		}
		if err := c.Apply(Mutation{Kind: MutCreateRel, ID: r.id, Start: r.start.id, End: r.end.id, Label: r.typ, list: r.props, listSet: true}); err != nil {
			panic(fmt.Sprintf("graph: clone of consistent graph failed: %v", err))
		}
	}
	nextNode, nextRel := g.IDCounters()
	c.SetIDCounters(nextNode, nextRel)
	c.SetEpoch(g.Epoch())
	return c
}

// SetEpoch forces the graph's mutation epoch. It exists for replica
// construction (MVCC versioning, replication): a replica built by Clone or
// replay must report its source's epoch, because equal epochs are the
// engine's proof of identical logical content (the plan cache keys on them).
// Not for general use — moving the epoch backwards can revive stale cached
// plans.
func (g *Graph) SetEpoch(epoch uint64) {
	g.epoch.Store(epoch)
}

// copyForReplay returns a Mutation safe to retain beyond the hook call. A
// record that carries its entity's list needs no copy: the list and label
// slice are immutable, and Apply does not read its Props, which may be the
// caller's map and is dropped. Other records' Labels and Props may alias
// state that later changes in place.
func (m Mutation) copyForReplay() Mutation {
	if m.listSet {
		m.Props = nil
		return m
	}
	if len(m.Labels) > 0 {
		m.Labels = append([]string(nil), m.Labels...)
	}
	if m.Props != nil {
		props := make(map[string]value.Value, len(m.Props))
		for k, v := range m.Props {
			props[k] = v
		}
		m.Props = props
	}
	return m
}
