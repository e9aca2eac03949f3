package graph

import (
	"sort"
	"strings"

	"repro/internal/value"
)

// Property indexes. Each (label, property) index keeps its entries in two
// coordinated shapes:
//
//   - a hash map from the value's canonical group key (value.GroupKey) to its
//     bucket, which serves O(1) equality and IN-list seeks;
//   - the same buckets in a slice ordered by value.Compare, which serves
//     range (<, <=, >, >=) and prefix (STARTS WITH) seeks by binary search.
//
// Both shapes hold *buckets* (one per distinct value), so maintaining them on
// mutation costs one hash lookup plus — only when a distinct value appears or
// disappears — one binary-searched insert/delete in the ordered slice. The
// entries counter and the bucket count feed the planner's selectivity
// statistics (see stats.go) without ever scanning the data.

// indexBucket holds the nodes sharing one distinct indexed value.
type indexBucket struct {
	val   value.Value
	nodes []*Node
}

// propIndexData is one (label, property) index.
type propIndexData struct {
	buckets map[string]*indexBucket // group key -> bucket
	ordered []*indexBucket          // buckets sorted by value.Compare(val)
	entries int                     // total indexed nodes across buckets
}

func newPropIndexData() *propIndexData {
	return &propIndexData{buckets: map[string]*indexBucket{}}
}

// add indexes the node under v (no-op if already present in the bucket).
func (d *propIndexData) add(n *Node, v value.Value) {
	gk := value.GroupKey(v)
	b, ok := d.buckets[gk]
	if !ok {
		b = &indexBucket{val: v}
		d.buckets[gk] = b
		// Insert the new distinct value into the ordered slice. Ties under
		// value.Compare (possible across int/float beyond 2^53, where numeric
		// equality is coarser than group-key identity) may order arbitrarily
		// among themselves; range seeks re-check per bucket, so correctness
		// does not depend on tie order.
		i := sort.Search(len(d.ordered), func(i int) bool {
			return value.Compare(d.ordered[i].val, v) >= 0
		})
		d.ordered = append(d.ordered, nil)
		copy(d.ordered[i+1:], d.ordered[i:])
		d.ordered[i] = b
	}
	for _, existing := range b.nodes {
		if existing == n {
			return
		}
	}
	b.nodes = append(b.nodes, n)
	d.entries++
}

// remove un-indexes the node from the bucket holding v.
func (d *propIndexData) remove(n *Node, v value.Value) {
	gk := value.GroupKey(v)
	b, ok := d.buckets[gk]
	if !ok {
		return
	}
	for i, existing := range b.nodes {
		if existing == n {
			b.nodes = append(b.nodes[:i], b.nodes[i+1:]...)
			d.entries--
			break
		}
	}
	if len(b.nodes) > 0 {
		return
	}
	delete(d.buckets, gk)
	// Find the emptied bucket in the ordered slice: binary search to the
	// first Compare-equal position, then walk the (normally length-1) tie
	// range to the identical bucket.
	i := sort.Search(len(d.ordered), func(i int) bool {
		return value.Compare(d.ordered[i].val, b.val) >= 0
	})
	for ; i < len(d.ordered); i++ {
		if d.ordered[i] == b {
			d.ordered = append(d.ordered[:i], d.ordered[i+1:]...)
			return
		}
		if value.Compare(d.ordered[i].val, b.val) != 0 {
			return
		}
	}
}

// CreateIndex declares a property index on (label, property). Existing nodes
// are indexed immediately; subsequent mutations keep the index up to date.
// Creating the same index twice is a no-op.
func (g *Graph) CreateIndex(label, property string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.createIndexLocked(label, property) {
		return
	}
	g.emit(Mutation{Kind: MutCreateIndex, Label: label, Key: property})
	g.bumpEpoch()
}

// createIndexLocked builds the index if it does not exist yet, reporting
// whether anything changed. Callers hold the write lock.
func (g *Graph) createIndexLocked(label, property string) bool {
	key := indexKey{label: label, property: property}
	if _, ok := g.propIndex[key]; ok {
		return false
	}
	idx := newPropIndexData()
	for _, n := range g.labelIndex[label] {
		if v, ok := n.props.Get(property); ok {
			idx.add(n, v)
		}
	}
	g.propIndex[key] = idx
	return true
}

// DropIndex removes a property index.
func (g *Graph) DropIndex(label, property string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.propIndex[indexKey{label: label, property: property}]; !ok {
		return
	}
	delete(g.propIndex, indexKey{label: label, property: property})
	g.emit(Mutation{Kind: MutDropIndex, Label: label, Key: property})
	g.bumpEpoch()
}

// HasIndex reports whether a property index exists on (label, property).
func (g *Graph) HasIndex(label, property string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.propIndex[indexKey{label: label, property: property}]
	return ok
}

// Indexes returns the declared (label, property) index pairs, sorted.
func (g *Graph) Indexes() [][2]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([][2]string, 0, len(g.propIndex))
	for k := range g.propIndex {
		out = append(out, [2]string{k.label, k.property})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// sortByID orders a freshly collected seek result by node identifier, so
// every index access path emits rows in the same order a label scan plus
// filter would — which keeps plan choice invisible to result order.
func sortByID(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	return nodes
}

// NodesByLabelProperty returns the nodes with the given label whose property
// equals v, ordered by identifier. If an index exists it is used; otherwise
// the label index is scanned and filtered.
func (g *Graph) NodesByLabelProperty(label, property string, v value.Value) []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if idx, ok := g.propIndex[indexKey{label: label, property: property}]; ok {
		var out []*Node
		if b, ok := idx.buckets[value.GroupKey(v)]; ok {
			out = appendEqualNodes(out, b, property, v)
		}
		return sortByID(out)
	}
	var out []*Node
	for _, n := range g.labelIndex[label] {
		if pv, ok := n.props.Get(property); ok && value.Equals(pv, v) == value.TrueT {
			out = append(out, n)
		}
	}
	return sortByID(out)
}

// appendEqualNodes appends the bucket's nodes whose stored value is
// Cypher-equal (TrueT) to v. Bucket membership is by GroupKey — the
// equivalence used for grouping — which is coarser than `=` where null or
// NaN is involved: [1, null] = [1, null] is unknown and NaN = NaN is false,
// yet both pairs share a group key. The recheck keeps every seek exactly as
// selective as the filter predicate it replaced.
func appendEqualNodes(out []*Node, b *indexBucket, property string, v value.Value) []*Node {
	for _, n := range b.nodes {
		if pv, ok := n.props.Get(property); ok && value.Equals(pv, v) == value.TrueT {
			out = append(out, n)
		}
	}
	return out
}

// NodesByLabelPropertyIn returns the nodes with the given label whose
// property equals any of vs (an IN-list seek), ordered by identifier. Null
// elements never match (comparison with null is unknown) and duplicate list
// elements are deduplicated, so every matching node appears exactly once.
func (g *Graph) NodesByLabelPropertyIn(label, property string, vs []value.Value) []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Node
	if idx, ok := g.propIndex[indexKey{label: label, property: property}]; ok {
		seen := make(map[string]bool, len(vs))
		for _, v := range vs {
			if value.IsNull(v) {
				continue
			}
			gk := value.GroupKey(v)
			if seen[gk] {
				continue
			}
			seen[gk] = true
			if b, ok := idx.buckets[gk]; ok {
				out = appendEqualNodes(out, b, property, v)
			}
		}
		return sortByID(out)
	}
	for _, n := range g.labelIndex[label] {
		pv, ok := n.props.Get(property)
		if !ok {
			continue
		}
		for _, v := range vs {
			if value.Equals(pv, v) == value.TrueT {
				out = append(out, n)
				break
			}
		}
	}
	return sortByID(out)
}

// NodesByLabelPropertyRange returns the nodes with the given label whose
// property lies within the (possibly half-open) range, ordered by
// identifier. A nil bound is unbounded on that side. Semantics follow
// Cypher's ternary comparisons: only values actually comparable with the
// bounds qualify (a string property never satisfies `> 5`), and nodes
// without the property never match.
func (g *Graph) NodesByLabelPropertyRange(label, property string, lo value.Value, loInc bool, hi value.Value, hiInc bool) []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Node
	if idx, ok := g.propIndex[indexKey{label: label, property: property}]; ok {
		start := 0
		if lo != nil {
			start = sort.Search(len(idx.ordered), func(i int) bool {
				return value.Compare(idx.ordered[i].val, lo) >= 0
			})
		}
		for i := start; i < len(idx.ordered); i++ {
			b := idx.ordered[i]
			if t := rangeMatch(b.val, lo, loInc, hi, hiInc); t == value.TrueT {
				out = append(out, b.nodes...)
			} else if beyondRange(b.val, lo, hi) {
				// Past the comparable segment (a different value kind, or past
				// the upper bound): nothing later in the order can match.
				break
			}
		}
		return sortByID(out)
	}
	for _, n := range g.labelIndex[label] {
		if pv, ok := n.props.Get(property); ok && rangeMatch(pv, lo, loInc, hi, hiInc) == value.TrueT {
			out = append(out, n)
		}
	}
	return sortByID(out)
}

// rangeMatch evaluates lo OP v AND v OP hi under ternary semantics.
func rangeMatch(v, lo value.Value, loInc bool, hi value.Value, hiInc bool) value.Ternary {
	if lo != nil {
		var t value.Ternary
		if loInc {
			t = value.GreaterEq(v, lo)
		} else {
			t = value.Greater(v, lo)
		}
		if t != value.TrueT {
			return t
		}
	}
	if hi != nil {
		if hiInc {
			return value.LessEq(v, hi)
		}
		return value.Less(v, hi)
	}
	return value.TrueT
}

// beyondRange reports whether v orders (by the total orderability order)
// strictly after the range, so an ordered walk can stop. NaN sorts at the end
// of the number segment but compares false rather than beyond, so the walk
// skips it and terminates at the next kind boundary (or the slice end).
func beyondRange(v, lo, hi value.Value) bool {
	if hi != nil {
		return value.Compare(v, hi) > 0
	}
	// Only the kind segment of the lower bound can possibly match.
	return value.Compare(v, lo) > 0 && rangeMatch(v, lo, true, nil, false) == value.UnknownT
}

// NodesByLabelPropertyPrefix returns the nodes with the given label whose
// string property starts with prefix, ordered by identifier. Non-string
// properties never match (STARTS WITH on a non-string is unknown).
func (g *Graph) NodesByLabelPropertyPrefix(label, property, prefix string) []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Node
	if idx, ok := g.propIndex[indexKey{label: label, property: property}]; ok {
		p := value.NewString(prefix)
		start := sort.Search(len(idx.ordered), func(i int) bool {
			return value.Compare(idx.ordered[i].val, p) >= 0
		})
		// Strings order bytewise, so all strings sharing the prefix are
		// contiguous from the first value >= prefix.
		for i := start; i < len(idx.ordered); i++ {
			s, ok := value.AsString(idx.ordered[i].val)
			if !ok || !strings.HasPrefix(s, prefix) {
				break
			}
			out = append(out, idx.ordered[i].nodes...)
		}
		return sortByID(out)
	}
	for _, n := range g.labelIndex[label] {
		pv, ok := n.props.Get(property)
		if !ok {
			continue
		}
		if s, ok := value.AsString(pv); ok && strings.HasPrefix(s, prefix) {
			out = append(out, n)
		}
	}
	return sortByID(out)
}

// addToPropIndexes adds a node to every property index whose label/property
// it matches. Callers must hold the write lock.
func (g *Graph) addToPropIndexes(n *Node) {
	for key, idx := range g.propIndex {
		if !n.HasLabel(key.label) {
			continue
		}
		if v, ok := n.props.Get(key.property); ok {
			idx.add(n, v)
		}
	}
}

// removeFromPropIndexes removes a node from every property index. Callers
// must hold the write lock.
func (g *Graph) removeFromPropIndexes(n *Node) {
	for key, idx := range g.propIndex {
		if !n.HasLabel(key.label) {
			continue
		}
		if v, ok := n.props.Get(key.property); ok {
			idx.remove(n, v)
		}
	}
}
