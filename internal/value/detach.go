package value

import "sort"

// This file implements snapshot copies of graph entities. Query results can
// outlive the lock the query ran under; a node or relationship value in a
// result must therefore not read the live store when the caller later asks
// for its labels or properties. Detach walks a value and replaces every
// entity view with an immutable copy taken while the query's lock is still
// held, giving results true snapshot semantics.

// PropLister is implemented by entity views whose property list is an
// immutable Props (the graph store's nodes and relationships). DetachNode
// and DetachRelationship keep that list instead of copying the properties.
type PropLister interface {
	PropList() Props
}

// LabelSharer is implemented by node views whose sorted label slice is never
// written in place (a label change installs a new slice), so DetachNode may
// keep it instead of copying.
type LabelSharer interface {
	SharedLabels() []string
}

// detachedNode is an immutable copy of a node, decoupled from any store.
type detachedNode struct {
	id     int64
	labels []string // sorted; never written
	props  Props
}

func (n *detachedNode) ID() int64 { return n.id }

func (n *detachedNode) Labels() []string { return append([]string(nil), n.labels...) }

func (n *detachedNode) HasLabel(label string) bool {
	i := sort.SearchStrings(n.labels, label)
	return i < len(n.labels) && n.labels[i] == label
}

func (n *detachedNode) Property(key string) Value { return n.props.Property(key) }

func (n *detachedNode) PropertyKeys() []string { return n.props.Keys() }

func (n *detachedNode) PropList() Props { return n.props }

// detachedRelationship is an immutable copy of a relationship.
type detachedRelationship struct {
	id         int64
	typ        string
	start, end int64
	props      Props
}

func (r *detachedRelationship) ID() int64          { return r.id }
func (r *detachedRelationship) RelType() string    { return r.typ }
func (r *detachedRelationship) StartNodeID() int64 { return r.start }
func (r *detachedRelationship) EndNodeID() int64   { return r.end }

func (r *detachedRelationship) Property(key string) Value { return r.props.Property(key) }

func (r *detachedRelationship) PropertyKeys() []string { return r.props.Keys() }

// propertyView is the property access shared by Node and Relationship.
type propertyView interface {
	Property(key string) Value
	PropertyKeys() []string
}

// propsOf returns the entity's property list: the view's own immutable list
// when it has one, else a list built from its keys.
func propsOf(x propertyView) Props {
	if pl, ok := x.(PropLister); ok {
		return pl.PropList()
	}
	keys := x.PropertyKeys()
	if len(keys) == 0 {
		return Props{}
	}
	e := make([]Prop, len(keys))
	for i, k := range keys {
		e[i] = Prop{Key: k, Val: x.Property(k)}
	}
	return Props{e: e}
}

// DetachNode copies a node view into an immutable snapshot. Property values
// and property lists are immutable (SET installs a new list), so a store
// node's list and label slice are kept, not copied.
func DetachNode(n Node) Node {
	if _, ok := n.(*detachedNode); ok {
		return n
	}
	var labels []string
	if ls, ok := n.(LabelSharer); ok {
		labels = ls.SharedLabels()
	} else {
		labels = n.Labels()
	}
	return &detachedNode{id: n.ID(), labels: labels, props: propsOf(n)}
}

// DetachRelationship copies a relationship view into an immutable snapshot.
func DetachRelationship(r Relationship) Relationship {
	if _, ok := r.(*detachedRelationship); ok {
		return r
	}
	return &detachedRelationship{
		id: r.ID(), typ: r.RelType(),
		start: r.StartNodeID(), end: r.EndNodeID(),
		props: propsOf(r),
	}
}

// Detach returns a value in which every graph entity (including entities
// nested in lists, maps and paths) is replaced by an immutable snapshot.
// Scalar values are returned unchanged; containers are only re-allocated
// when they actually hold entities.
func Detach(v Value) Value {
	d, _ := detach(v)
	return d
}

// detach reports whether it had to copy, so containers of plain scalars can
// be returned as-is.
func detach(v Value) (Value, bool) {
	switch t := v.(type) {
	case NodeValue:
		if _, ok := t.N.(*detachedNode); ok {
			return v, false
		}
		return NodeValue{N: DetachNode(t.N)}, true
	case RelationshipValue:
		if _, ok := t.R.(*detachedRelationship); ok {
			return v, false
		}
		return RelationshipValue{R: DetachRelationship(t.R)}, true
	case PathValue:
		nodes := make([]Node, len(t.P.Nodes))
		for i, n := range t.P.Nodes {
			nodes[i] = DetachNode(n)
		}
		rels := make([]Relationship, len(t.P.Rels))
		for i, r := range t.P.Rels {
			rels[i] = DetachRelationship(r)
		}
		return PathValue{P: Path{Nodes: nodes, Rels: rels}}, true
	case List:
		elems := t.Elements()
		var out []Value
		for i, e := range elems {
			d, changed := detach(e)
			if changed && out == nil {
				out = make([]Value, len(elems))
				copy(out, elems[:i])
			}
			if out != nil {
				out[i] = d
			}
		}
		if out == nil {
			return v, false
		}
		return NewListOf(out), true
	case Map:
		var out map[string]Value
		for k, e := range t.Entries() {
			d, changed := detach(e)
			if changed && out == nil {
				out = make(map[string]Value, t.Len())
				for k2, e2 := range t.Entries() {
					out[k2] = e2
				}
			}
			if out != nil {
				out[k] = d
			}
		}
		if out == nil {
			return v, false
		}
		return NewMap(out), true
	default:
		return v, false
	}
}
