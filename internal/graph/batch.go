package graph

// Batched accessors for the vectorized executor: property gathers over node
// slices and adjacency iteration with the direction/type dispatch hoisted
// out of the per-node loop. Both read the live store under the same rules as
// their scalar counterparts (scan snapshots pin the node set; adjacency must
// not be mutated during iteration — readers run on a pinned MVCC version).

import "repro/internal/value"

// PropertyColumn gathers nodes[i].Property(key) into out[:len(nodes)] and
// returns it. Missing properties gather as value.Null(), matching
// Node.Property. out must have len >= len(nodes); the same backing slice can
// be reused across batches.
func PropertyColumn(nodes []*Node, key string, out []value.Value) []value.Value {
	out = out[:len(nodes)]
	for i, n := range nodes {
		out[i] = n.props.Property(key)
	}
	return out
}

// EachRelationshipBatch iterates the incident relationships of every node in
// the slice, calling fn(ord, rel) with the node's ordinal. Per-node
// semantics and order are exactly EachRelationship's (single-type walks the
// type bucket; Both reports self-loops once), but the type/direction
// dispatch happens once per batch instead of once per node. fn returning
// false stops the whole iteration (the function then also returns false).
func EachRelationshipBatch(nodes []*Node, dir Direction, types []string, fn func(ord int, r *Relationship) bool) bool {
	if len(types) == 1 {
		t := types[0]
		for ord, n := range nodes {
			if dir == Outgoing || dir == Both {
				for _, r := range n.outByType[t] {
					if !fn(ord, r) {
						return false
					}
				}
			}
			if dir == Incoming || dir == Both {
				for _, r := range n.inByType[t] {
					if dir == Both && r.start == r.end {
						continue
					}
					if !fn(ord, r) {
						return false
					}
				}
			}
		}
		return true
	}
	for ord, n := range nodes {
		if dir == Outgoing || dir == Both {
			for _, r := range n.out {
				if !typeMatches(r.typ, types) {
					continue
				}
				if !fn(ord, r) {
					return false
				}
			}
		}
		if dir == Incoming || dir == Both {
			for _, r := range n.in {
				if !typeMatches(r.typ, types) {
					continue
				}
				if dir == Both && r.start == r.end {
					continue
				}
				if !fn(ord, r) {
					return false
				}
			}
		}
	}
	return true
}
