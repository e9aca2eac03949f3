// Package graph implements the property graph data model of Section 4.1 of
// the Cypher paper: a graph G = (N, R, src, tgt, iota, lambda, tau) of nodes
// and relationships with properties, node labels and relationship types.
//
// The store is an in-memory, native-adjacency representation: every node
// holds direct references to its incident relationships, so the Expand
// operator of the execution engine never needs an index to find related
// nodes (the property the paper highlights for Neo4j's storage layout).
// Label and relationship-type indexes and simple statistics support the
// planner's scan selection and cost model.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// Direction selects which relationships of a node to traverse.
type Direction int

// Traversal directions.
const (
	// Outgoing follows relationships whose source is the node.
	Outgoing Direction = iota
	// Incoming follows relationships whose target is the node.
	Incoming
	// Both follows relationships regardless of direction.
	Both
)

// String returns a readable name for the direction.
func (d Direction) String() string {
	switch d {
	case Outgoing:
		return "OUTGOING"
	case Incoming:
		return "INCOMING"
	default:
		return "BOTH"
	}
}

// Node is a property graph node: an identifier, a set of labels lambda(n) and
// a property list iota(n, .). Nodes also hold their incident relationships
// (index-free adjacency), both as flat slices in creation order and bucketed
// by relationship type, so a type-filtered traversal walks exactly the
// relationships of that type without comparing type strings per edge.
type Node struct {
	id    int64
	graph *Graph
	// labels is sorted and never written in place: a label change installs
	// a new slice, so clones and detached copies may keep the old one.
	labels []string
	// props is immutable; a property change installs a new list (see
	// value.Props), so clones and detached copies share it.
	props value.Props
	out   []*Relationship
	in    []*Relationship
	// outByType/inByType bucket the same relationships by type, preserving
	// the relative order of the flat slices. Maintained by the graph's
	// mutators; nil until the first relationship arrives.
	outByType map[string][]*Relationship
	inByType  map[string][]*Relationship
}

// Relationship is a property graph relationship: an identifier, a type
// tau(r), source src(r), target tgt(r) and a property list iota(r, .).
type Relationship struct {
	id    int64
	typ   string
	start *Node
	end   *Node
	props value.Props // immutable, like Node.props
}

// Graph is an in-memory property graph. All exported methods are safe for
// concurrent use; read-heavy operations take a shared lock.
type Graph struct {
	mu         sync.RWMutex
	name       string
	nodes      map[int64]*Node
	rels       map[int64]*Relationship
	nextNodeID int64
	nextRelID  int64

	labelIndex map[string]map[int64]*Node
	typeIndex  map[string]map[int64]*Relationship
	propIndex  map[indexKey]*propIndexData // (label, property) -> hash + ordered buckets

	// names interns property keys, labels and relationship types: every
	// entity refers to one shared copy of each string instead of its own
	// (see intern). Written under the write lock only.
	names map[string]string

	// epoch counts mutations (data and index changes). Cached query plans
	// record the epoch they were compiled at and are discarded when it moves,
	// so plan caches never serve decisions based on stale statistics or a
	// vanished index.
	epoch atomic.Uint64

	// hook, when set, observes every mutation from inside the write lock in
	// commit order; the storage layer journals the stream to its WAL. See
	// SetMutationHook.
	hook MutationHook

	// snap caches the sorted scan orders (all nodes, nodes per label) behind
	// an atomic pointer, stamped with the epoch they were built at. Scans and
	// morsel partitioning hit the cache allocation-free until the next
	// mutation invalidates it. See scan.go.
	snap atomicSnap
}

type indexKey struct {
	label    string
	property string
}

// New creates an empty property graph.
func New() *Graph {
	return &Graph{
		name:       "graph",
		nodes:      make(map[int64]*Node),
		rels:       make(map[int64]*Relationship),
		labelIndex: make(map[string]map[int64]*Node),
		typeIndex:  make(map[string]map[int64]*Relationship),
		propIndex:  make(map[indexKey]*propIndexData),
		names:      make(map[string]string),
	}
}

// intern returns the graph's canonical copy of s, adding a copy of s on
// first sight (a copy, so an interned name never pins a larger buffer such
// as a query text or a decoded WAL payload). Callers hold the write lock.
// The table does not shrink when a name falls out of use: it keeps one
// entry per distinct key, label and type written since the graph was built.
// Clone, and recovery from a snapshot, start over from the names in use.
func (g *Graph) intern(s string) string {
	if c, ok := g.names[s]; ok {
		return c
	}
	s = strings.Clone(s)
	g.names[s] = s
	return s
}

// adopt makes s, a canonical name of another graph, this graph's canonical
// copy of it unless the graph already has one. Clone uses it so the copy
// shares the source's strings and holds only the names in use.
func (g *Graph) adopt(s string) {
	if _, ok := g.names[s]; !ok {
		g.names[s] = s
	}
}

// NewNamed creates an empty property graph with a name (used by the multiple
// named graphs catalog).
func NewNamed(name string) *Graph {
	g := New()
	g.name = name
	return g
}

// Name returns the graph's name.
func (g *Graph) Name() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.name
}

// Epoch returns the graph's current mutation epoch. It is incremented by
// every data or index mutation; equal epochs imply the graph (as seen by the
// planner: contents, statistics, indexes) has not changed in between.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// bumpEpoch records a mutation. Callers hold the write lock; the counter is
// atomic anyway so Epoch() can be read without any lock.
func (g *Graph) bumpEpoch() { g.epoch.Add(1) }

// --- Node: value.Node implementation and accessors ---

// ID returns the node identifier.
func (n *Node) ID() int64 { return n.id }

// Labels returns the node's labels, sorted.
func (n *Node) Labels() []string {
	return append([]string(nil), n.labels...)
}

// HasLabel reports whether the node carries the label.
func (n *Node) HasLabel(label string) bool {
	i := sort.SearchStrings(n.labels, label)
	return i < len(n.labels) && n.labels[i] == label
}

// SharedLabels returns the node's sorted label slice itself, not a copy.
// The slice is never written in place, so a holder may keep it; it must
// not modify it. See value.LabelSharer.
func (n *Node) SharedLabels() []string { return n.labels }

// Property returns the property value for key, or null if absent.
func (n *Node) Property(key string) value.Value { return n.props.Property(key) }

// PropertyKeys returns the node's property keys, sorted.
func (n *Node) PropertyKeys() []string { return n.props.Keys() }

// PropList returns the node's immutable property list; see value.PropLister.
func (n *Node) PropList() value.Props { return n.props }

// Properties returns a copy of the node's properties as a map; used by the
// persistence and import paths, which need the whole map at once.
func (n *Node) Properties() map[string]value.Value { return n.props.Map() }

// Degree returns the number of incident relationships in the given direction,
// optionally restricted to a set of relationship types (empty means any).
// With the type buckets this is a constant-time length sum — no per-edge
// filtering and no closure allocation.
func (n *Node) Degree(dir Direction, types ...string) int {
	count := 0
	if len(types) == 0 {
		if dir == Outgoing || dir == Both {
			count += len(n.out)
		}
		if dir == Incoming || dir == Both {
			count += len(n.in)
		}
		return count
	}
	for i, t := range types {
		if duplicateType(types, i) {
			continue
		}
		if dir == Outgoing || dir == Both {
			count += len(n.outByType[t])
		}
		if dir == Incoming || dir == Both {
			count += len(n.inByType[t])
		}
	}
	return count
}

// duplicateType reports whether types[i] already occurred earlier in types
// (a rel pattern like [:A|A] must not count relationships twice).
func duplicateType(types []string, i int) bool {
	for j := 0; j < i; j++ {
		if types[j] == types[i] {
			return true
		}
	}
	return false
}

// typeMatches reports whether typ is in types (empty means any).
func typeMatches(typ string, types []string) bool {
	if len(types) == 0 {
		return true
	}
	for _, t := range types {
		if t == typ {
			return true
		}
	}
	return false
}

// EachRelationship calls fn for the node's incident relationships in the
// given direction, optionally restricted to relationship types, in the same
// order Relationships returns them. It allocates nothing: a single type
// filter walks that type's bucket directly, the untyped form walks the flat
// adjacency slices. fn returning false stops the iteration (EachRelationship
// then also returns false).
//
// The iteration reads the live adjacency slices, so callers must not mutate
// the graph from inside fn; mutating paths use Relationships, which copies.
func (n *Node) EachRelationship(dir Direction, types []string, fn func(*Relationship) bool) bool {
	if len(types) == 1 {
		t := types[0]
		if dir == Outgoing || dir == Both {
			for _, r := range n.outByType[t] {
				if !fn(r) {
					return false
				}
			}
		}
		if dir == Incoming || dir == Both {
			for _, r := range n.inByType[t] {
				// A self-loop appears in both adjacency lists; report it once.
				if dir == Both && r.start == r.end {
					continue
				}
				if !fn(r) {
					return false
				}
			}
		}
		return true
	}
	if dir == Outgoing || dir == Both {
		for _, r := range n.out {
			if !typeMatches(r.typ, types) {
				continue
			}
			if !fn(r) {
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
			if !fn(r) {
				return false
			}
		}
	}
	return true
}

// OutgoingRels returns the node's live outgoing adjacency for the requested
// types with zero allocations: the type bucket for a single type, the flat
// slice otherwise. filtered reports whether the returned slice is already
// restricted to the requested types (it is not for two or more types; the
// caller must filter). The slice aliases the node's adjacency and must only
// be read, and only while the graph is not being mutated.
func (n *Node) OutgoingRels(types []string) (rels []*Relationship, filtered bool) {
	switch len(types) {
	case 0:
		return n.out, true
	case 1:
		return n.outByType[types[0]], true
	default:
		return n.out, false
	}
}

// IncomingRels is OutgoingRels for the incoming adjacency.
func (n *Node) IncomingRels(types []string) (rels []*Relationship, filtered bool) {
	switch len(types) {
	case 0:
		return n.in, true
	case 1:
		return n.inByType[types[0]], true
	default:
		return n.in, false
	}
}

// Relationships returns the node's incident relationships in the given
// direction, optionally restricted to relationship types. The returned slice
// is freshly allocated, so it stays valid while the caller mutates the
// graph; read-only hot paths use EachRelationship instead.
func (n *Node) Relationships(dir Direction, types ...string) []*Relationship {
	var out []*Relationship
	n.EachRelationship(dir, types, func(r *Relationship) bool {
		out = append(out, r)
		return true
	})
	return out
}

// --- Relationship: value.Relationship implementation and accessors ---

// ID returns the relationship identifier.
func (r *Relationship) ID() int64 { return r.id }

// RelType returns the relationship type tau(r).
func (r *Relationship) RelType() string { return r.typ }

// StartNodeID returns src(r).
func (r *Relationship) StartNodeID() int64 { return r.start.id }

// EndNodeID returns tgt(r).
func (r *Relationship) EndNodeID() int64 { return r.end.id }

// StartNode returns the source node.
func (r *Relationship) StartNode() *Node { return r.start }

// EndNode returns the target node.
func (r *Relationship) EndNode() *Node { return r.end }

// StartEndNodes returns both endpoints as value.Node views; the expression
// evaluator uses this for the startNode() and endNode() functions.
func (r *Relationship) StartEndNodes() (start, end value.Node) {
	return r.start, r.end
}

// Other returns the endpoint of r that is not n. For self-loops it returns n.
func (r *Relationship) Other(n *Node) *Node {
	if r.start == n {
		return r.end
	}
	return r.start
}

// Property returns the property value for key, or null if absent.
func (r *Relationship) Property(key string) value.Value { return r.props.Property(key) }

// PropertyKeys returns the relationship's property keys, sorted.
func (r *Relationship) PropertyKeys() []string { return r.props.Keys() }

// PropList returns the relationship's immutable property list; see
// value.PropLister.
func (r *Relationship) PropList() value.Props { return r.props }

// Properties returns a copy of the relationship's properties as a map; used
// by the persistence and import paths, which need the whole map at once.
func (r *Relationship) Properties() map[string]value.Value { return r.props.Map() }

// --- Graph read access ---

// NodeByID returns the node with the given identifier.
func (g *Graph) NodeByID(id int64) (*Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	return n, ok
}

// RelationshipByID returns the relationship with the given identifier.
func (g *Graph) RelationshipByID(id int64) (*Relationship, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	r, ok := g.rels[id]
	return r, ok
}

// Relationships returns all relationships, ordered by identifier.
func (g *Graph) Relationships() []*Relationship {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Relationship, 0, len(g.rels))
	for _, r := range g.rels {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// RelationshipsByType returns all relationships of the given type, ordered by
// identifier.
func (g *Graph) RelationshipsByType(typ string) []*Relationship {
	g.mu.RLock()
	defer g.mu.RUnlock()
	idx, ok := g.typeIndex[typ]
	if !ok {
		return nil
	}
	out := make([]*Relationship, 0, len(idx))
	for _, r := range idx {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Labels returns all labels present in the graph, sorted. Empty index
// buckets are pruned eagerly on delete (see mutate.go), so every bucket that
// exists is non-empty and no per-call emptiness scan is needed.
func (g *Graph) Labels() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.labelIndex))
	for l := range g.labelIndex {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// RelationshipTypes returns all relationship types present in the graph,
// sorted. Like Labels, it relies on delete-time pruning of empty buckets.
func (g *Graph) RelationshipTypes() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.typeIndex))
	for t := range g.typeIndex {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// String summarises the graph.
func (g *Graph) String() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return fmt.Sprintf("Graph(%s: %d nodes, %d relationships)", g.name, len(g.nodes), len(g.rels))
}

// DebugDump renders the complete logical state of the graph — ID counters,
// indexes, nodes with labels and properties, relationships with endpoints
// and properties — as a canonical string. Two graphs are logically identical
// exactly when their dumps are equal; the persistence tests use this to
// prove snapshot+replay equivalence. Not for hot paths.
func (g *Graph) DebugDump() string {
	var sb strings.Builder
	nn, nr := g.IDCounters()
	fmt.Fprintf(&sb, "counters %d %d\n", nn, nr)
	for _, idx := range g.Indexes() {
		fmt.Fprintf(&sb, "index (%s, %s)\n", idx[0], idx[1])
	}
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "node %d %v {", n.ID(), n.Labels())
		for _, k := range n.PropertyKeys() {
			fmt.Fprintf(&sb, " %s: %s", k, n.Property(k))
		}
		sb.WriteString(" }\n")
	}
	for _, r := range g.Relationships() {
		fmt.Fprintf(&sb, "rel %d %d-[:%s]->%d {", r.ID(), r.StartNodeID(), r.RelType(), r.EndNodeID())
		for _, k := range r.PropertyKeys() {
			fmt.Fprintf(&sb, " %s: %s", k, r.Property(k))
		}
		sb.WriteString(" }\n")
	}
	return sb.String()
}
