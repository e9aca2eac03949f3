package exec

// Vectorized (batched) execution of the batched plan prefix marked by
// plan.AnalyzePipeline. Instead of pushing one borrowed row per emit
// call, the scan chunks its node set into result.Batch columns (one slice
// per slot, capacity aligned with the morsel size) and pushes whole batches
// through operator kernels:
//
//   - Filter marks the selection vector in place (three tiers: a columnar
//     fast path for conjunctions of property/constant comparisons, a
//     compiled per-row predicate from eval.CompileBatchPredicate, and a
//     generic fallback through the scalar evaluator over a view record);
//   - a Filter directly above the scan whose columnar form reads only the
//     scan variable is fused into the scan loop, so rows that fail the
//     predicate are dropped before their node is ever boxed into a value;
//   - Project evaluates its items row-major against the pre-projection
//     columns (buffered per row, so shadowing and error order match the row
//     engine) and writes the target columns in place;
//   - Expand gathers the batch's source nodes and amortizes the
//     direction/type dispatch across the whole batch via
//     graph.EachRelationshipBatch, appending matches to a pooled output
//     batch; a relationship or target that no operator above reads
//     (plan.Pipeline.DropDeadBindings) is left unbound, so it is never boxed;
//   - Limit truncates the selection vector and stops the scan through a
//     sentinel error;
//   - SelectColumns binds the kept columns (unbound -> null, like the row
//     path) and clears the rest;
//   - Aggregate, always the last kernel, is a sink (aggSink) that folds
//     each selected row into the aggState group table with keys and
//     arguments compiled once; its groups feed the row path above once the
//     scan is done (morsel workers keep theirs as partial states).
//
// Otherwise, at the top of the batched segment a row adapter loads each
// selected row into a reused view record and feeds the remaining
// operators' proven row-at-a-time path. The borrowed-row discipline generalizes to batches:
// a batch passed to a kernel's emit is only valid for the duration of the
// call, and batches come from a package-level pool (executors are
// per-query; pooling across queries is what keeps warm batched scans
// allocation-free).
//
// Everything here preserves row order: chunks are scanned in snapshot
// order, kernels keep the selection vector in row order, and Expand visits
// adjacency in the same order as the row path — so vectorized, serial and
// morsel-parallel runs stay byte-identical.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/result"
	"repro/internal/value"
)

// DefaultBatchSize is the default rows-per-batch, aligned with the morsel
// size so one morsel is one batch under parallel execution.
const DefaultBatchSize = graph.DefaultMorselSize

// batchSize resolves the executor's effective batch size: 0 means the
// default, negative disables vectorized execution.
func (ex *Executor) batchSize() int {
	switch {
	case ex.opts.BatchSize < 0:
		return 0
	case ex.opts.BatchSize == 0:
		return DefaultBatchSize
	default:
		return ex.opts.BatchSize
	}
}

// batchEmit consumes one produced batch; returning an error stops
// production. The batch is borrowed: it is only valid for the duration of
// the call.
type batchEmit func(*result.Batch) error

// errBatchLimit is the internal sentinel a Limit kernel returns once the
// limit is exhausted; the scan loop stops cleanly on it.
var errBatchLimit = errors.New("exec: batch limit reached")

// vecSource is the synthetic leaf operator that replaces Start+scan for a
// vectorized run (the whole scan serially, or one morsel per worker under
// parallelism). Its ops are the batch-safe operators folded into the
// batched pipeline; operators above it are rebased on top via buildChain
// and run row-at-a-time off the batch adapter.
type vecSource struct {
	varName string
	nodes   []*graph.Node
	ops     []plan.Operator
}

func (s *vecSource) Describe() string      { return fmt.Sprintf("VectorizedScan(%s)", s.varName) }
func (s *vecSource) Source() plan.Operator { return nil }

// batchPools recycles batches across queries, one pool per capacity
// (engines with different BatchSize options coexist in one process).
var batchPools sync.Map // int -> *sync.Pool

// batchesOutstanding counts batches currently checked out of the pools. The
// cancellation-hygiene tests assert it returns to its pre-query level after
// canceled, deadline-killed and panicking queries — pooled batches must be
// returned on every exit path (they are: putBatch runs in deferred handlers
// that also fire during panic unwinding).
var batchesOutstanding atomic.Int64

// BatchesOutstanding reports how many pooled batches are checked out across
// the process. Test instrumentation.
func BatchesOutstanding() int64 { return batchesOutstanding.Load() }

func batchPoolFor(capacity int) *sync.Pool {
	if p, ok := batchPools.Load(capacity); ok {
		return p.(*sync.Pool)
	}
	p, _ := batchPools.LoadOrStore(capacity, &sync.Pool{})
	return p.(*sync.Pool)
}

// getBatch returns a batch of the given capacity shaped for the slot table,
// reusing a pooled one when possible.
func getBatch(tab *result.SlotTable, capacity int) *result.Batch {
	batchesOutstanding.Add(1)
	if v := batchPoolFor(capacity).Get(); v != nil {
		b := v.(*result.Batch)
		b.Retab(tab)
		return b
	}
	return result.NewBatch(tab, capacity)
}

// putBatch wipes the batch (so it does not pin graph entities) and returns
// it to its capacity's pool.
func putBatch(b *result.Batch) {
	batchesOutstanding.Add(-1)
	b.Wipe()
	batchPoolFor(b.Capacity()).Put(b)
}

// --- Columnar filter fast path ---

// cmpKind is a comparison operator of the columnar filter.
type cmpKind int

const (
	cmpEq cmpKind = iota
	cmpNeq
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// ternaryCmp applies the comparison through the same value comparators the
// scalar evaluator uses.
func ternaryCmp(k cmpKind, a, b value.Value) value.Ternary {
	switch k {
	case cmpEq:
		return value.Equals(a, b)
	case cmpNeq:
		return value.Not(value.Equals(a, b))
	case cmpLt:
		return value.Less(a, b)
	case cmpLe:
		return value.LessEq(a, b)
	case cmpGt:
		return value.Greater(a, b)
	default:
		return value.GreaterEq(a, b)
	}
}

// flipCmp mirrors a comparison when its operands are swapped
// (const < n.prop  ==  n.prop > const).
func flipCmp(k cmpKind) cmpKind {
	switch k {
	case cmpLt:
		return cmpGt
	case cmpLe:
		return cmpGe
	case cmpGt:
		return cmpLt
	case cmpGe:
		return cmpLe
	default:
		return k
	}
}

// columnarConjunct is one `var.key OP const` comparison.
type columnarConjunct struct {
	slot     int
	key      string
	kind     cmpKind
	constVal value.Value
}

// columnarFilter is a conjunction of property/constant comparisons that can
// run column-at-a-time without entering the expression evaluator. Because
// the conjuncts cannot error (property fetch on a node and the value
// comparators are total) and a row survives iff every conjunct is TrueT
// (Kleene AND), evaluating them conjunct-major is indistinguishable from
// the row engine's row-major order.
type columnarFilter struct {
	conjuncts []columnarConjunct
}

// flattenAnd appends the AND-conjuncts of e to out.
func flattenAnd(e ast.Expr, out []ast.Expr) []ast.Expr {
	if b, ok := e.(*ast.BinaryOp); ok && b.Op == ast.OpAnd {
		out = flattenAnd(b.LHS, out)
		return flattenAnd(b.RHS, out)
	}
	return append(out, e)
}

// compileColumnarFilter recognises conjunctions of comparisons between a
// property of a slotted variable and a constant (literal or resolved
// parameter).
func (ex *Executor) compileColumnarFilter(pred ast.Expr) (*columnarFilter, bool) {
	exprs := flattenAnd(pred, nil)
	cf := &columnarFilter{conjuncts: make([]columnarConjunct, 0, len(exprs))}
	for _, e := range exprs {
		b, ok := e.(*ast.BinaryOp)
		if !ok {
			return nil, false
		}
		var kind cmpKind
		switch b.Op {
		case ast.OpEq:
			kind = cmpEq
		case ast.OpNeq:
			kind = cmpNeq
		case ast.OpLt:
			kind = cmpLt
		case ast.OpLe:
			kind = cmpLe
		case ast.OpGt:
			kind = cmpGt
		case ast.OpGe:
			kind = cmpGe
		default:
			return nil, false
		}
		lhs, rhs := b.LHS, b.RHS
		prop, propOK := lhs.(*ast.PropertyAccess)
		cv, constOK := ex.constantOperand(rhs)
		if !propOK || !constOK {
			// Try the mirrored form: const OP var.key.
			prop, propOK = rhs.(*ast.PropertyAccess)
			cv, constOK = ex.constantOperand(lhs)
			if !propOK || !constOK {
				return nil, false
			}
			kind = flipCmp(kind)
		}
		v, ok := prop.Subject.(*ast.Variable)
		if !ok {
			return nil, false
		}
		slot, ok := ex.tab.Slot(v.Name)
		if !ok {
			return nil, false
		}
		cf.conjuncts = append(cf.conjuncts, columnarConjunct{slot: slot, key: prop.Key, kind: kind, constVal: cv})
	}
	return cf, true
}

// constantOperand resolves a literal or a supplied parameter.
func (ex *Executor) constantOperand(e ast.Expr) (value.Value, bool) {
	switch x := e.(type) {
	case *ast.Literal:
		return x.Value, true
	case *ast.Parameter:
		v, ok := ex.params[x.Name]
		return v, ok
	}
	return nil, false
}

// onlySlot reports whether every conjunct reads the given slot (the
// condition for fusing the filter into the scan loop).
func (cf *columnarFilter) onlySlot(slot int) bool {
	for _, c := range cf.conjuncts {
		if c.slot != slot {
			return false
		}
	}
	return true
}

// filterNodesInto appends the nodes passing every conjunct to dst. Used by
// the fused scan+filter loop: failing nodes are dropped before being boxed
// into values.
func (cf *columnarFilter) filterNodesInto(dst, nodes []*graph.Node) []*graph.Node {
	c := cf.conjuncts[0]
	for _, n := range nodes {
		if ternaryCmp(c.kind, n.Property(c.key), c.constVal) == value.TrueT {
			dst = append(dst, n)
		}
	}
	for _, c := range cf.conjuncts[1:] {
		k := 0
		for _, n := range dst {
			if ternaryCmp(c.kind, n.Property(c.key), c.constVal) == value.TrueT {
				dst[k] = n
				k++
			}
		}
		dst = dst[:k]
	}
	return dst
}

// applyBatch runs the conjuncts column-at-a-time over the batch's
// selection. It reports false without modifying the batch when a referenced
// value is not a concrete graph node (null subjects, maps, foreign nodes);
// the caller then uses per-row evaluation, which handles those cases with
// the scalar evaluator's exact semantics.
func (cf *columnarFilter) applyBatch(b *result.Batch) bool {
	for _, c := range cf.conjuncts {
		col := b.Col(c.slot)
		for _, row := range b.Selection() {
			nv, ok := col[row].(value.NodeValue)
			if !ok {
				return false
			}
			if _, ok := nv.N.(*graph.Node); !ok {
				return false
			}
		}
	}
	for ci := range cf.conjuncts {
		c := &cf.conjuncts[ci]
		col := b.Col(c.slot)
		b.CompactSel(func(_ int, row int32) bool {
			n := col[row].(value.NodeValue).N.(*graph.Node)
			return ternaryCmp(c.kind, n.Property(c.key), c.constVal) == value.TrueT
		})
		if b.Rows() == 0 {
			return true
		}
	}
	return true
}

// --- Kernel pipeline ---

// batchPipeline tracks the pooled batches a kernel chain owns (Expand
// output buffers), released when the pipeline finishes.
type batchPipeline struct {
	size  int
	owned []*result.Batch
}

func (bp *batchPipeline) close() {
	for _, b := range bp.owned {
		putBatch(b)
	}
	bp.owned = nil
}

// buildBatchKernels composes the batched kernels bottom-up around the sink.
// ok=false means some operator has no batched form here (e.g. a slot is
// missing on a hand-built plan) and the caller should run the row path;
// err is a real query error (e.g. an invalid LIMIT count) and must surface.
func (ex *Executor) buildBatchKernels(ops []plan.Operator, size int, sink batchEmit) (push batchEmit, bp *batchPipeline, ok bool, err error) {
	bp = &batchPipeline{size: size}
	cur := sink
	for i := len(ops) - 1; i >= 0; i-- {
		cur, ok, err = ex.buildKernel(ops[i], bp, cur)
		if !ok || err != nil {
			bp.close()
			return nil, nil, false, err
		}
	}
	return cur, bp, true, nil
}

// buildKernel builds the batched kernel for one operator, pushing into emit.
func (ex *Executor) buildKernel(op plan.Operator, bp *batchPipeline, emit batchEmit) (batchEmit, bool, error) {
	switch o := op.(type) {
	case *plan.Filter:
		return ex.buildFilterKernel(o, emit), true, nil
	case *plan.Project:
		return ex.buildProjectKernel(o, emit)
	case *plan.Expand:
		return ex.buildExpandKernel(o, bp, emit)
	case *plan.Limit:
		nVal, err := ex.constantCount(o.Count, "LIMIT")
		if err != nil {
			return nil, false, err
		}
		remaining := nVal
		return func(b *result.Batch) error {
			if remaining <= 0 {
				return errBatchLimit
			}
			if int64(b.Rows()) > remaining {
				b.TruncateSel(int(remaining))
			}
			remaining -= int64(b.Rows())
			if err := emit(b); err != nil {
				return err
			}
			if remaining <= 0 {
				return errBatchLimit
			}
			return nil
		}, true, nil
	case *plan.SelectColumns:
		keep := make([]bool, ex.tab.Len())
		for _, c := range o.Columns {
			s, ok := ex.tab.Slot(c)
			if !ok {
				return nil, false, nil
			}
			keep[s] = true
		}
		return func(b *result.Batch) error {
			for slot := range keep {
				col := b.Col(slot)
				if keep[slot] {
					// The row path binds every selected column, null when the
					// input left it unbound (out.Set(c, r.Get(c))).
					for _, row := range b.Selection() {
						if col[row] == nil {
							col[row] = value.Null()
						}
					}
				} else {
					for _, row := range b.Selection() {
						col[row] = nil
					}
				}
			}
			return emit(b)
		}, true, nil
	}
	return nil, false, nil
}

// buildFilterKernel builds the three-tier Filter kernel: columnar conjunct
// evaluation when the predicate has that shape and the batch's values are
// concrete nodes, a compiled per-row predicate otherwise, and the scalar
// evaluator over a view record as the last resort.
func (ex *Executor) buildFilterKernel(o *plan.Filter, emit batchEmit) batchEmit {
	cf, _ := ex.compileColumnarFilter(o.Predicate)
	pred, predOK := ex.evalCtx.CompileBatchPredicate(o.Predicate, ex.tab)
	view := result.NewSlotted(ex.tab)
	return func(b *result.Batch) error {
		if cf == nil || !cf.applyBatch(b) {
			if predOK {
				if err := b.FilterSel(func(row int32) (bool, error) {
					t, err := pred(b, row)
					if err != nil {
						return false, err
					}
					return t == value.TrueT, nil
				}); err != nil {
					return err
				}
			} else {
				if err := b.FilterSel(func(row int32) (bool, error) {
					b.LoadRecord(&view, row)
					return ex.evalCtx.EvaluateTruth(o.Predicate, view)
				}); err != nil {
					return err
				}
			}
		}
		if b.Rows() == 0 {
			return nil
		}
		return emit(b)
	}
}

// buildProjectKernel builds the Project kernel. Items are evaluated
// row-major against the pre-projection columns and buffered, then written —
// exactly the row path's scratch-row discipline (an item may shadow a
// variable other items still read).
func (ex *Executor) buildProjectKernel(o *plan.Project, emit batchEmit) (batchEmit, bool, error) {
	type compiledItem struct {
		slot int
		fast eval.BatchExpr
		expr ast.Expr
	}
	items := make([]compiledItem, len(o.Items))
	for i, it := range o.Items {
		slot, ok := ex.tab.Slot(it.Name)
		if !ok {
			return nil, false, nil
		}
		fast, _ := ex.evalCtx.CompileBatchExpr(it.Expr, ex.tab)
		items[i] = compiledItem{slot: slot, fast: fast, expr: it.Expr}
	}
	view := result.NewSlotted(ex.tab)
	vals := make([]value.Value, len(items))
	return func(b *result.Batch) error {
		for _, row := range b.Selection() {
			loaded := false
			for i := range items {
				if items[i].fast != nil {
					v, err := items[i].fast(b, row)
					if err != nil {
						return err
					}
					vals[i] = v
					continue
				}
				if !loaded {
					b.LoadRecord(&view, row)
					loaded = true
				}
				v, err := ex.evalCtx.Evaluate(items[i].expr, view)
				if err != nil {
					return err
				}
				vals[i] = v
			}
			for i := range items {
				b.Col(items[i].slot)[row] = vals[i]
			}
		}
		return emit(b)
	}, true, nil
}

// buildExpandKernel builds the single-hop Expand kernel. Source nodes are
// gathered across the batch's selection, then graph.EachRelationshipBatch
// walks all their adjacency with the direction/type dispatch hoisted out of
// the per-row loop; matches append to a pooled output batch that is flushed
// downstream whenever it fills. Per-source-row state (uniqueness sets,
// inline property predicates) is refreshed lazily when the source ordinal
// advances. Check order matches expandRels: used-rel, rel properties,
// used-node, then bind.
func (ex *Executor) buildExpandKernel(o *plan.Expand, bp *batchPipeline, emit batchEmit) (batchEmit, bool, error) {
	if o.VarLength || o.ExpandInto {
		// The analysis keeps these on the row path; a hand-built plan may
		// still reach here.
		return nil, false, nil
	}
	fromSlot, ok := ex.tab.Slot(o.FromVar)
	if !ok {
		return nil, false, nil
	}
	toSlot, ok := ex.tab.Slot(o.ToVar)
	if !ok {
		return nil, false, nil
	}
	relSlot := -1
	if o.RelVar != "" {
		if relSlot, ok = ex.tab.Slot(o.RelVar); !ok {
			return nil, false, nil
		}
	}
	// A target no operator above reads is left unbound (the planner already
	// dropped an unread relationship's RelVar).
	if o.ToUnread {
		toSlot = -1
	}
	dir := toGraphDirection(o.Direction)
	needRelSet := ex.opts.Morphism == EdgeIsomorphism && len(o.UniqueRels) > 0
	needNodeSet := ex.opts.Morphism == NodeIsomorphism && len(o.UniqueNodes) > 0
	out := getBatch(ex.tab, bp.size)
	bp.owned = append(bp.owned, out)
	view := result.NewSlotted(ex.tab)
	// The gather scratch grows to the largest input batch that arrives and
	// is reused after that: a one-node seek must not pay for a full batch.
	var nodesScratch []*graph.Node
	var rowsScratch []int32
	return func(b *result.Batch) error {
		// One input batch can fan out to arbitrarily many output batches
		// (supernodes); check at the batch boundary like the drivers do.
		if err := ex.qc.Err(); err != nil {
			return err
		}
		sel := b.Selection()
		if cap(nodesScratch) < len(sel) {
			nodesScratch = make([]*graph.Node, 0, len(sel))
			rowsScratch = make([]int32, 0, len(sel))
		}
		nodesScratch = nodesScratch[:0]
		rowsScratch = rowsScratch[:0]
		fromCol := b.Col(fromSlot)
		for _, row := range sel {
			v := fromCol[row]
			if v == nil || value.IsNull(v) {
				// An OPTIONAL MATCH (or an unbound slot, which reads as null)
				// contributes nothing to expand from — same as the row path.
				continue
			}
			n, err := asGraphNode(v)
			if err != nil {
				return err
			}
			nodesScratch = append(nodesScratch, n)
			rowsScratch = append(rowsScratch, row)
		}
		if len(nodesScratch) == 0 {
			return nil
		}
		curOrd := -1
		var usedRels, usedNodes map[int64]bool
		var iterErr error
		out.Clear()
		graph.EachRelationshipBatch(nodesScratch, dir, o.Types, func(ord int, rel *graph.Relationship) bool {
			if ord != curOrd {
				curOrd = ord
				releaseIDSet(usedRels)
				releaseIDSet(usedNodes)
				usedRels, usedNodes = nil, nil
				if needRelSet || needNodeSet || o.RelProperties != nil {
					b.LoadRecord(&view, rowsScratch[ord])
				}
				if needRelSet {
					usedRels = boundRelIDs(view, o.UniqueRels)
				}
				if needNodeSet {
					usedNodes = boundNodeIDs(view, o.UniqueNodes)
				}
			}
			if usedRels != nil && usedRels[rel.ID()] {
				return true
			}
			target := rel.Other(nodesScratch[ord])
			if o.RelProperties != nil {
				ok, err := ex.relPropertiesMatch(o.RelProperties, rel, view)
				if err != nil {
					iterErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			if usedNodes != nil && usedNodes[target.ID()] {
				return true
			}
			if out.Full() {
				if err := emit(out); err != nil {
					iterErr = err
					return false
				}
				out.Clear()
			}
			dst := out.AppendFrom(b, rowsScratch[ord])
			if relSlot >= 0 {
				out.Col(relSlot)[dst] = value.NewRelationship(rel)
			}
			if toSlot >= 0 {
				out.Col(toSlot)[dst] = value.NewNode(target)
			}
			return true
		})
		releaseIDSet(usedRels)
		releaseIDSet(usedNodes)
		if iterErr != nil {
			return iterErr
		}
		if out.Rows() > 0 {
			if err := emit(out); err != nil {
				return err
			}
			out.Clear()
		}
		return nil
	}, true, nil
}

// --- Aggregate sink ---

// aggSink is the batched prefix's terminal kernel: it folds every selected
// row of a batch straight into an aggState's group table. Grouping keys and
// arguments are compiled once; an item without a batch form falls back, by
// itself, to the scalar evaluator over a view record loaded once per row.
// Items are evaluated row-major, keys first and then arguments, which is the
// row path's order (aggState.add), so the first error is the same one.
type aggSink struct {
	st   *aggState
	keys []batchItem
	args []batchItem // expr nil for count(*)
	view result.Record
	// loaded reports whether view holds the current row.
	loaded bool
}

// batchItem is one compiled expression with its scalar fallback.
type batchItem struct {
	fast eval.BatchExpr
	expr ast.Expr
}

func (ex *Executor) newAggSink(st *aggState) *aggSink {
	o := st.o
	items := make([]batchItem, len(o.Grouping)+len(o.Aggregations))
	for i, g := range o.Grouping {
		items[i].expr = g.Expr
	}
	for i, a := range o.Aggregations {
		items[len(o.Grouping)+i].expr = a.Arg
	}
	fallback := false
	for i := range items {
		if items[i].expr != nil {
			var ok bool
			items[i].fast, ok = ex.evalCtx.CompileBatchExpr(items[i].expr, ex.tab)
			fallback = fallback || !ok
		}
	}
	k := &aggSink{st: st, keys: items[:len(o.Grouping)], args: items[len(o.Grouping):]}
	if fallback {
		k.view = result.NewSlotted(ex.tab)
	}
	return k
}

// eval evaluates one item against physical row `row` of b.
func (k *aggSink) eval(it *batchItem, b *result.Batch, row int32) (value.Value, error) {
	if it.fast != nil {
		return it.fast(b, row)
	}
	if !k.loaded {
		b.LoadRecord(&k.view, row)
		k.loaded = true
	}
	return k.st.ex.evalCtx.Evaluate(it.expr, k.view)
}

// push folds the batch's selected rows into the state.
func (k *aggSink) push(b *result.Batch) error {
	st := k.st
	for _, row := range b.Selection() {
		k.loaded = false
		for i := range k.keys {
			v, err := k.eval(&k.keys[i], b, row)
			if err != nil {
				return err
			}
			st.keyScratch[i] = v
		}
		g, err := st.group()
		if err != nil {
			return err
		}
		for i := range k.args {
			if k.args[i].expr == nil {
				g.aggs[i].(*eval.CountStarAgg).Inc()
				continue
			}
			v, err := k.eval(&k.args[i], b, row)
			if err != nil {
				return err
			}
			if err := g.aggs[i].Add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Vectorized drivers ---

// executeVectorized attempts a serial vectorized run of the plan's batched
// prefix with the remaining operators rebased on top, row-at-a-time. done
// is false when a leaf seek's operand fails to evaluate or the remainder
// cannot be rebased (the caller takes the row path).
func (ex *Executor) executeVectorized(p *plan.Plan, pl *plan.Pipeline) (tbl *result.Table, done bool, err error) {
	varName, nodes, ok := ex.leafNodes(pl.Scan)
	if !ok {
		return nil, false, nil
	}
	top, err := buildChain(&vecSource{varName: varName, nodes: nodes, ops: pl.Ops[:pl.Batched]}, pl.Ops[pl.Batched:])
	if err != nil {
		return nil, false, nil
	}
	tbl = result.NewTable(p.Columns...)
	if err := ex.run(top, nil, func(r result.Record) error {
		// The table outlives the emit call; take ownership of the row.
		if err := ex.qc.ChargeRecord(r); err != nil {
			return err
		}
		tbl.Add(r.Clone())
		return nil
	}); err != nil {
		return nil, true, err
	}
	return tbl, true, nil
}

// runVectorized drives a vecSource leaf: its batched kernels run over the
// node set, and surviving rows are adapted back into the row pipeline above
// — or, when the segment ends in an Aggregate, folded into its groups, which
// then feed the row pipeline once the scan is done.
func (ex *Executor) runVectorized(o *vecSource, emit emitFn) error {
	if n := len(o.ops); n > 0 {
		if agg, ok := o.ops[n-1].(*plan.Aggregate); ok {
			st := ex.newAggState(agg)
			if err := ex.foldVectorized(o, st); err != nil {
				return err
			}
			return st.emit(emit)
		}
	}
	view := result.NewSlotted(ex.tab)
	ok, err := ex.pushBatches(o, o.ops, func(b *result.Batch) error {
		for _, row := range b.Selection() {
			b.LoadRecord(&view, row)
			if err := emit(view); err != nil {
				return err
			}
		}
		return nil
	})
	if !ok && err == nil {
		return ex.runVecRowFallback(o, o.ops, emit)
	}
	return err
}

// foldVectorized runs a vecSource whose last operator is an Aggregate,
// folding its rows into st (the serial run's state, or one morsel's partial
// state).
func (ex *Executor) foldVectorized(o *vecSource, st *aggState) error {
	ops := o.ops[:len(o.ops)-1]
	ok, err := ex.pushBatches(o, ops, ex.newAggSink(st).push)
	if ok || err != nil {
		return err
	}
	return ex.runVecRowFallback(o, ops, st.add)
}

// pushBatches chunks the source's node set into batches and pushes each
// through the batched kernels of ops (a prefix of o.ops) into sink.
// ok=false, with nothing pushed, means the kernels reject the shape and the
// caller should take the row path.
func (ex *Executor) pushBatches(o *vecSource, ops []plan.Operator, sink batchEmit) (ok bool, err error) {
	size := ex.batchSize()
	if size <= 0 {
		size = DefaultBatchSize
	}
	nodes := o.nodes
	scanSlot, ok := ex.tab.Slot(o.varName)
	if !ok {
		return false, nil
	}
	// Scan+filter fusion: consecutive columnar filters directly above the
	// scan that read only the scan variable run over the raw node chunk,
	// before boxing (the planner pushes each WHERE conjunct as its own
	// Filter, so all of them merge into one fused conjunction).
	var fused *columnarFilter
	for len(ops) > 0 {
		f, isFilter := ops[0].(*plan.Filter)
		if !isFilter {
			break
		}
		cf, okc := ex.compileColumnarFilter(f.Predicate)
		if !okc || !cf.onlySlot(scanSlot) {
			break
		}
		if fused == nil {
			fused = cf
		} else {
			fused.conjuncts = append(fused.conjuncts, cf.conjuncts...)
		}
		ops = ops[1:]
	}
	push, bp, ok, err := ex.buildBatchKernels(ops, size, sink)
	if err != nil {
		return true, err
	}
	if !ok {
		return false, nil
	}
	defer bp.close()
	b := getBatch(ex.tab, size)
	defer putBatch(b)
	var scratch []*graph.Node
	if fused != nil {
		// Sized to the largest chunk this node set yields, not to the
		// batch capacity.
		scratch = make([]*graph.Node, 0, min(size, len(nodes)))
	}
	for lo := 0; lo < len(nodes); lo += size {
		// Cancellation check at the batch boundary — the vectorized
		// counterpart of the row loops' stride ticks (one chunk is one
		// stride by construction).
		if err := ex.qc.Err(); err != nil {
			return true, err
		}
		chunk := nodes[lo:min(lo+size, len(nodes))]
		if fused != nil {
			scratch = fused.filterNodesInto(scratch[:0], chunk)
			chunk = scratch
			if len(chunk) == 0 {
				continue
			}
		}
		b.Reset(len(chunk))
		col := b.Col(scanSlot)
		for i, n := range chunk {
			col[i] = value.NewNode(n)
		}
		if err := push(b); err != nil {
			if errors.Is(err, errBatchLimit) {
				return true, nil
			}
			return true, err
		}
	}
	return true, nil
}

// runVecRowFallback runs ops, a prefix of the vecSource's segment, on the
// row path (a hand-built plan can carry shapes the kernels reject, e.g.
// names without slots). Semantics are identical by construction: this is
// exactly the morsel worker's nodeSource chain.
func (ex *Executor) runVecRowFallback(o *vecSource, ops []plan.Operator, emit emitFn) error {
	top, err := buildChain(&nodeSource{varName: o.varName, nodes: o.nodes}, ops)
	if err != nil {
		return err
	}
	return ex.run(top, nil, emit)
}
