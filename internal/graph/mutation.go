package graph

import (
	"fmt"

	"repro/internal/value"
)

// MutationKind identifies a logical mutation of the graph. The set of kinds
// is exactly the set of primitives every updating clause funnels through
// (mutate.go and index.go), so a stream of Mutation records is a complete
// description of how a graph evolved — the property the storage layer's
// write-ahead log relies on.
type MutationKind uint8

// The logical mutation kinds.
const (
	// MutCreateNode creates a node with ID, Labels and Props.
	MutCreateNode MutationKind = iota + 1
	// MutDeleteNode deletes the node ID (its relationships are already gone).
	MutDeleteNode
	// MutCreateRel creates relationship ID of type Label from Start to End
	// with Props.
	MutCreateRel
	// MutDeleteRel deletes the relationship ID.
	MutDeleteRel
	// MutSetNodeProp sets property Key on node ID to Value (null removes).
	MutSetNodeProp
	// MutSetRelProp sets property Key on relationship ID to Value (null
	// removes).
	MutSetRelProp
	// MutReplaceNodeProps replaces all properties of node ID with Props.
	MutReplaceNodeProps
	// MutReplaceRelProps replaces all properties of relationship ID with
	// Props.
	MutReplaceRelProps
	// MutAddLabel adds Label to node ID.
	MutAddLabel
	// MutRemoveLabel removes Label from node ID.
	MutRemoveLabel
	// MutCreateIndex declares a property index on (Label, Key).
	MutCreateIndex
	// MutDropIndex drops the property index on (Label, Key).
	MutDropIndex
)

// String names the mutation kind (used by the WAL dump tool and errors).
func (k MutationKind) String() string {
	switch k {
	case MutCreateNode:
		return "CREATE_NODE"
	case MutDeleteNode:
		return "DELETE_NODE"
	case MutCreateRel:
		return "CREATE_REL"
	case MutDeleteRel:
		return "DELETE_REL"
	case MutSetNodeProp:
		return "SET_NODE_PROP"
	case MutSetRelProp:
		return "SET_REL_PROP"
	case MutReplaceNodeProps:
		return "REPLACE_NODE_PROPS"
	case MutReplaceRelProps:
		return "REPLACE_REL_PROPS"
	case MutAddLabel:
		return "ADD_LABEL"
	case MutRemoveLabel:
		return "REMOVE_LABEL"
	case MutCreateIndex:
		return "CREATE_INDEX"
	case MutDropIndex:
		return "DROP_INDEX"
	default:
		return fmt.Sprintf("MUTATION(%d)", uint8(k))
	}
}

// Mutation is one logical change to the graph. Which fields are meaningful
// depends on Kind; unused fields are zero. Label doubles as the relationship
// type for MutCreateRel and as the index label for the index kinds; Key
// doubles as the index property.
type Mutation struct {
	Kind       MutationKind
	ID         int64
	Start, End int64
	Label      string
	Key        string
	Value      value.Value
	Labels     []string
	Props      map[string]value.Value

	// list, when listSet, is the entity's property list right after the
	// mutation, attached by the graph that emitted the record (the create,
	// set and replace kinds) and by Clone. Apply adopts it instead of
	// building a list from Props or Key and Value: lists are immutable, so
	// the MVCC replica and the primary share one. Records decoded from disk
	// or the network never carry one.
	list    value.Props
	listSet bool
}

// MutationHook observes committed-to-memory mutations. It is invoked
// synchronously inside the graph's write lock, in mutation order, after the
// in-memory change has been applied — so the sequence of hook calls replayed
// through Apply reproduces the store exactly. Hooks must be fast and must
// not call back into the graph. The Labels and Props fields reference live
// store state or the caller's map; hooks that retain a Mutation beyond the
// call must copy them (the storage journal encodes them to bytes
// immediately instead).
type MutationHook func(m Mutation)

// SetMutationHook installs the (single) mutation hook; nil removes it. It is
// intended to be called once, before the graph is shared between goroutines.
func (g *Graph) SetMutationHook(h MutationHook) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hook = h
}

// emit reports a mutation to the hook. Callers hold the write lock.
func (g *Graph) emit(m Mutation) {
	if g.hook != nil {
		g.hook(m)
	}
}

// IDCounters returns the next-ID counters (last assigned node and
// relationship identifiers). The storage layer records them in snapshots so
// recovery never reuses the identifier of a deleted entity.
func (g *Graph) IDCounters() (node, rel int64) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nextNodeID, g.nextRelID
}

// SetIDCounters raises the next-ID counters to at least the given values.
// Used by recovery after replaying a snapshot.
func (g *Graph) SetIDCounters(node, rel int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if node > g.nextNodeID {
		g.nextNodeID = node
	}
	if rel > g.nextRelID {
		g.nextRelID = rel
	}
}

// Apply replays a logical mutation with explicit identifiers, as read back
// from a snapshot or the write-ahead log. It mirrors the normal mutation
// methods but honours the recorded IDs instead of allocating fresh ones, and
// it does not invoke the mutation hook (replaying must not re-journal).
func (g *Graph) Apply(m Mutation) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch m.Kind {
	case MutCreateNode:
		if _, ok := g.nodes[m.ID]; ok {
			return fmt.Errorf("graph: apply %s: node %d already exists", m.Kind, m.ID)
		}
		labels := m.Labels
		if !m.listSet {
			labels = g.internLabels(labels)
		}
		// A record that carries a list was emitted by a graph, and its
		// labels are that node's own sorted slice, never written in place.
		g.insertNode(m.ID, labels, g.listOf(m))
		if m.ID > g.nextNodeID {
			g.nextNodeID = m.ID
		}
	case MutDeleteNode:
		n, ok := g.nodes[m.ID]
		if !ok {
			return fmt.Errorf("graph: apply %s: node %d not found", m.Kind, m.ID)
		}
		if len(n.out) > 0 || len(n.in) > 0 {
			return fmt.Errorf("graph: apply %s: node %d still has relationships", m.Kind, m.ID)
		}
		delete(g.nodes, n.id)
		for _, l := range n.labels {
			g.removeFromLabelIndex(l, n)
		}
		g.removeFromPropIndexes(n)
	case MutCreateRel:
		if _, ok := g.rels[m.ID]; ok {
			return fmt.Errorf("graph: apply %s: relationship %d already exists", m.Kind, m.ID)
		}
		start, ok := g.nodes[m.Start]
		if !ok {
			return fmt.Errorf("graph: apply %s: start node %d not found", m.Kind, m.Start)
		}
		end, ok := g.nodes[m.End]
		if !ok {
			return fmt.Errorf("graph: apply %s: end node %d not found", m.Kind, m.End)
		}
		g.insertRel(m.ID, g.intern(m.Label), start, end, g.listOf(m))
		if m.ID > g.nextRelID {
			g.nextRelID = m.ID
		}
	case MutDeleteRel:
		r, ok := g.rels[m.ID]
		if !ok {
			return fmt.Errorf("graph: apply %s: relationship %d not found", m.Kind, m.ID)
		}
		delete(g.rels, r.id)
		delete(g.typeIndex[r.typ], r.id)
		if len(g.typeIndex[r.typ]) == 0 {
			delete(g.typeIndex, r.typ)
		}
		r.start.out = removeRel(r.start.out, r)
		r.end.in = removeRel(r.end.in, r)
		removeRelBucket(r.start.outByType, r)
		removeRelBucket(r.end.inByType, r)
	case MutSetNodeProp, MutReplaceNodeProps:
		n, ok := g.nodes[m.ID]
		if !ok {
			return fmt.Errorf("graph: apply %s: node %d not found", m.Kind, m.ID)
		}
		if m.Kind == MutSetNodeProp && !m.listSet {
			g.setNodeProps(n, g.withProp(n.props, m.Key, m.Value))
		} else {
			g.setNodeProps(n, g.listOf(m))
		}
	case MutSetRelProp, MutReplaceRelProps:
		r, ok := g.rels[m.ID]
		if !ok {
			return fmt.Errorf("graph: apply %s: relationship %d not found", m.Kind, m.ID)
		}
		if m.Kind == MutSetRelProp && !m.listSet {
			r.props = g.withProp(r.props, m.Key, m.Value)
		} else {
			r.props = g.listOf(m)
		}
	case MutAddLabel:
		n, ok := g.nodes[m.ID]
		if !ok {
			return fmt.Errorf("graph: apply %s: node %d not found", m.Kind, m.ID)
		}
		if !n.HasLabel(m.Label) {
			g.addLabelLocked(n, m.Label)
		}
	case MutRemoveLabel:
		n, ok := g.nodes[m.ID]
		if !ok {
			return fmt.Errorf("graph: apply %s: node %d not found", m.Kind, m.ID)
		}
		if n.HasLabel(m.Label) {
			g.removeLabelLocked(n, m.Label)
		}
	case MutCreateIndex:
		g.createIndexLocked(m.Label, m.Key)
	case MutDropIndex:
		delete(g.propIndex, indexKey{label: m.Label, property: m.Key})
	default:
		return fmt.Errorf("graph: apply: unknown mutation kind %d", m.Kind)
	}
	g.bumpEpoch()
	return nil
}

// listOf returns the property list a create or replace record installs: the
// attached list when the record carries one, else one built from Props.
// Callers hold the write lock.
func (g *Graph) listOf(m Mutation) value.Props {
	if m.listSet {
		return m.list
	}
	return value.NewProps(m.Props, g.intern)
}
