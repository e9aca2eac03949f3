package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/value"
)

// ErrNodeHasRelationships is returned by DeleteNode when the node still has
// incident relationships (Cypher requires DETACH DELETE in that case).
var ErrNodeHasRelationships = errors.New("graph: cannot delete node with relationships (use DETACH DELETE)")

// ErrNotFound is returned when an entity does not exist (e.g. it was deleted).
var ErrNotFound = errors.New("graph: entity not found")

// CreateNode creates a node with the given labels and properties and returns
// it. Null-valued properties are not stored (Cypher treats storing null as
// removing the property).
func (g *Graph) CreateNode(labels []string, props map[string]value.Value) *Node {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextNodeID++
	n := g.insertNode(g.nextNodeID, g.internLabels(labels), value.NewProps(props, g.intern))
	g.emit(Mutation{Kind: MutCreateNode, ID: n.id, Labels: n.labels, Props: journalProps(props, n.props), list: n.props, listSet: true})
	g.bumpEpoch()
	return n
}

// insertNode adds a node with already interned, sorted labels and a built
// property list, indexing it. Callers hold the write lock.
func (g *Graph) insertNode(id int64, labels []string, props value.Props) *Node {
	n := &Node{id: id, graph: g, labels: labels, props: props}
	g.nodes[id] = n
	for _, l := range labels {
		g.addToLabelIndex(l, n)
	}
	g.addToPropIndexes(n)
	return n
}

// CreateRelationship creates a relationship of the given type from start to
// end, with the given properties.
func (g *Graph) CreateRelationship(start, end *Node, typ string, props map[string]value.Value) (*Relationship, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[start.id]; !ok || start.graph != g {
		return nil, fmt.Errorf("%w: start node %d", ErrNotFound, start.id)
	}
	if _, ok := g.nodes[end.id]; !ok || end.graph != g {
		return nil, fmt.Errorf("%w: end node %d", ErrNotFound, end.id)
	}
	g.nextRelID++
	r := g.insertRel(g.nextRelID, g.intern(typ), start, end, value.NewProps(props, g.intern))
	g.emit(Mutation{Kind: MutCreateRel, ID: r.id, Start: start.id, End: end.id, Label: r.typ, Props: journalProps(props, r.props), list: r.props, listSet: true})
	g.bumpEpoch()
	return r, nil
}

// insertRel adds a relationship with an already interned type and a built
// property list to the adjacency of both endpoints and the type index.
// Callers hold the write lock.
func (g *Graph) insertRel(id int64, typ string, start, end *Node, props value.Props) *Relationship {
	r := &Relationship{id: id, typ: typ, start: start, end: end, props: props}
	g.rels[id] = r
	start.out = append(start.out, r)
	end.in = append(end.in, r)
	if start.outByType == nil {
		start.outByType = make(map[string][]*Relationship)
	}
	start.outByType[typ] = append(start.outByType[typ], r)
	if end.inByType == nil {
		end.inByType = make(map[string][]*Relationship)
	}
	end.inByType[typ] = append(end.inByType[typ], r)
	if g.typeIndex[typ] == nil {
		g.typeIndex[typ] = make(map[int64]*Relationship)
	}
	g.typeIndex[typ][id] = r
	return r
}

// journalProps returns the map the mutation hook receives for a list built
// from in: in itself when the list holds all of its entries (no null was
// dropped), so the common case builds no second map.
func journalProps(in map[string]value.Value, p value.Props) map[string]value.Value {
	if len(in) == p.Len() {
		return in
	}
	return p.Map()
}

// internLabels returns the distinct labels, interned, in a new sorted slice.
// Callers hold the write lock.
func (g *Graph) internLabels(labels []string) []string {
	if len(labels) == 0 {
		return nil
	}
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = g.intern(l)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// withProp returns p with key set to v, or without key when v is null,
// interning a newly stored key. Callers hold the write lock.
func (g *Graph) withProp(p value.Props, key string, v value.Value) value.Props {
	if value.IsNull(v) {
		return p.Without(key)
	}
	return p.With(g.intern(key), v)
}

// setNodeProps installs a new property list on n, keeping the property
// indexes in step. Callers hold the write lock.
func (g *Graph) setNodeProps(n *Node, props value.Props) {
	g.removeFromPropIndexes(n)
	n.props = props
	g.addToPropIndexes(n)
}

// DeleteRelationship removes the relationship from the graph.
func (g *Graph) DeleteRelationship(r *Relationship) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.deleteRelationshipLocked(r)
}

func (g *Graph) deleteRelationshipLocked(r *Relationship) error {
	if _, ok := g.rels[r.id]; !ok {
		return fmt.Errorf("%w: relationship %d", ErrNotFound, r.id)
	}
	delete(g.rels, r.id)
	delete(g.typeIndex[r.typ], r.id)
	if len(g.typeIndex[r.typ]) == 0 {
		// Prune the empty bucket so RelationshipTypes never has to scan past
		// types that no longer exist.
		delete(g.typeIndex, r.typ)
	}
	r.start.out = removeRel(r.start.out, r)
	r.end.in = removeRel(r.end.in, r)
	removeRelBucket(r.start.outByType, r)
	removeRelBucket(r.end.inByType, r)
	g.emit(Mutation{Kind: MutDeleteRel, ID: r.id})
	g.bumpEpoch()
	return nil
}

// removeRelBucket removes r from its type bucket, dropping the bucket when it
// empties.
func removeRelBucket(byType map[string][]*Relationship, r *Relationship) {
	if byType == nil {
		return
	}
	rest := removeRel(byType[r.typ], r)
	if len(rest) == 0 {
		delete(byType, r.typ)
		return
	}
	byType[r.typ] = rest
}

func removeRel(rels []*Relationship, r *Relationship) []*Relationship {
	for i, x := range rels {
		if x == r {
			return append(rels[:i], rels[i+1:]...)
		}
	}
	return rels
}

// DeleteNode removes a node that has no incident relationships.
func (g *Graph) DeleteNode(n *Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.id]; !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, n.id)
	}
	if len(n.out) > 0 || len(n.in) > 0 {
		return ErrNodeHasRelationships
	}
	g.removeNodeLocked(n)
	return nil
}

// DetachDeleteNode removes a node and all its incident relationships.
func (g *Graph) DetachDeleteNode(n *Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.id]; !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, n.id)
	}
	for len(n.out) > 0 {
		if err := g.deleteRelationshipLocked(n.out[0]); err != nil {
			return err
		}
	}
	for len(n.in) > 0 {
		if err := g.deleteRelationshipLocked(n.in[0]); err != nil {
			return err
		}
	}
	g.removeNodeLocked(n)
	return nil
}

func (g *Graph) removeNodeLocked(n *Node) {
	delete(g.nodes, n.id)
	for _, l := range n.labels {
		g.removeFromLabelIndex(l, n)
	}
	g.removeFromPropIndexes(n)
	g.emit(Mutation{Kind: MutDeleteNode, ID: n.id})
	g.bumpEpoch()
}

// SetNodeProperty sets (or with a null value removes) a property on a node.
func (g *Graph) SetNodeProperty(n *Node, key string, v value.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.id]; !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, n.id)
	}
	g.setNodeProps(n, g.withProp(n.props, key, v))
	g.emit(Mutation{Kind: MutSetNodeProp, ID: n.id, Key: key, Value: v, list: n.props, listSet: true})
	g.bumpEpoch()
	return nil
}

// SetRelationshipProperty sets (or with a null value removes) a property on a
// relationship.
func (g *Graph) SetRelationshipProperty(r *Relationship, key string, v value.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.rels[r.id]; !ok {
		return fmt.Errorf("%w: relationship %d", ErrNotFound, r.id)
	}
	r.props = g.withProp(r.props, key, v)
	g.emit(Mutation{Kind: MutSetRelProp, ID: r.id, Key: key, Value: v, list: r.props, listSet: true})
	g.bumpEpoch()
	return nil
}

// ReplaceNodeProperties replaces all properties of a node (SET n = {...}).
func (g *Graph) ReplaceNodeProperties(n *Node, props map[string]value.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.id]; !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, n.id)
	}
	g.setNodeProps(n, value.NewProps(props, g.intern))
	g.emit(Mutation{Kind: MutReplaceNodeProps, ID: n.id, Props: journalProps(props, n.props), list: n.props, listSet: true})
	g.bumpEpoch()
	return nil
}

// ReplaceRelationshipProperties replaces all properties of a relationship.
func (g *Graph) ReplaceRelationshipProperties(r *Relationship, props map[string]value.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.rels[r.id]; !ok {
		return fmt.Errorf("%w: relationship %d", ErrNotFound, r.id)
	}
	r.props = value.NewProps(props, g.intern)
	g.emit(Mutation{Kind: MutReplaceRelProps, ID: r.id, Props: journalProps(props, r.props), list: r.props, listSet: true})
	g.bumpEpoch()
	return nil
}

// AddNodeLabel adds a label to a node.
func (g *Graph) AddNodeLabel(n *Node, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.id]; !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, n.id)
	}
	if n.HasLabel(label) {
		return nil
	}
	g.addLabelLocked(n, label)
	g.emit(Mutation{Kind: MutAddLabel, ID: n.id, Label: label})
	g.bumpEpoch()
	return nil
}

// addLabelLocked gives n a new label slice with label added. The old slice
// is left as it was: clones and detached copies may still hold it.
func (g *Graph) addLabelLocked(n *Node, label string) {
	label = g.intern(label)
	i := sort.SearchStrings(n.labels, label)
	labels := make([]string, len(n.labels)+1)
	copy(labels, n.labels[:i])
	labels[i] = label
	copy(labels[i+1:], n.labels[i:])
	n.labels = labels
	g.addToLabelIndex(label, n)
	g.addToPropIndexes(n)
}

// RemoveNodeLabel removes a label from a node.
func (g *Graph) RemoveNodeLabel(n *Node, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.id]; !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, n.id)
	}
	if !n.HasLabel(label) {
		return nil
	}
	g.removeLabelLocked(n, label)
	g.emit(Mutation{Kind: MutRemoveLabel, ID: n.id, Label: label})
	g.bumpEpoch()
	return nil
}

// removeLabelLocked gives n a new label slice without label, which n
// carries. Like addLabelLocked it never writes the old slice.
func (g *Graph) removeLabelLocked(n *Node, label string) {
	g.removeFromPropIndexes(n)
	i := sort.SearchStrings(n.labels, label)
	n.labels = slices.Delete(slices.Clone(n.labels), i, i+1)
	g.removeFromLabelIndex(label, n)
	g.addToPropIndexes(n)
}

func (g *Graph) addToLabelIndex(label string, n *Node) {
	if g.labelIndex[label] == nil {
		g.labelIndex[label] = make(map[int64]*Node)
	}
	g.labelIndex[label][n.id] = n
}

// removeFromLabelIndex removes the node from the label's bucket, pruning the
// bucket when it empties so Labels() never iterates stale entries.
func (g *Graph) removeFromLabelIndex(label string, n *Node) {
	idx := g.labelIndex[label]
	delete(idx, n.id)
	if len(idx) == 0 {
		delete(g.labelIndex, label)
	}
}
