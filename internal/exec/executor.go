// Package exec implements the runtime that evaluates compiled query plans
// against a property graph. Operators are executed as a push-based pipeline
// (the tuple-at-a-time producer/consumer model the paper cites for Neo4j's
// compiled runtime [Neumann 2011]); the operator vocabulary itself follows
// the Volcano-style plans of package plan.
//
// Rows are slotted records (result.NewSlotted over the plan's SlotTable):
// a flat slice of values indexed by the slots the planner assigned, so
// binding a variable is a slice store instead of a map insert. On top of
// that the pipeline follows a borrowed-row discipline: the record passed to
// an emit function is only valid for the duration of the call, and operators
// that produce many rows from one input reuse a single row buffer,
// rebinding their output slots in place. Any operator that retains rows
// beyond the emit call — Sort, the morsel merge buffers, the final result
// table, MERGE's match list — clones them first. This keeps the steady-state
// scan→filter→expand→aggregate path free of per-row allocations beyond the
// entity values themselves.
//
// The pattern-matching core implements the match(pi, G, u) relation of
// Section 4.2 of the paper: bag semantics, and relationship-isomorphism
// (no relationship is traversed twice within one MATCH clause), configurable
// to homomorphism or node-isomorphism as discussed in the paper's
// "configurable morphisms" future work.
package exec

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/result"
	"repro/internal/value"
)

// Morphism selects the pattern-matching semantics.
type Morphism int

// Pattern-matching morphism modes (Section 8 of the paper).
const (
	// EdgeIsomorphism is Cypher's default: within one MATCH clause no
	// relationship is bound more than once.
	EdgeIsomorphism Morphism = iota
	// Homomorphism places no uniqueness restriction on matches.
	Homomorphism
	// NodeIsomorphism requires all node bindings within one MATCH clause to
	// be distinct.
	NodeIsomorphism
)

// String returns the name of the morphism mode.
func (m Morphism) String() string {
	switch m {
	case Homomorphism:
		return "homomorphism"
	case NodeIsomorphism:
		return "node-isomorphism"
	default:
		return "edge-isomorphism"
	}
}

// Options configures an Executor.
type Options struct {
	// Morphism selects the pattern-matching semantics; the default is
	// relationship (edge) isomorphism.
	Morphism Morphism
	// MaxVarLengthDepth bounds unbounded variable-length expansion when the
	// morphism places no uniqueness restriction (homomorphism), which would
	// otherwise produce infinite results on cyclic graphs. Zero means the
	// default of 15.
	MaxVarLengthDepth int
	// Parallelism is the maximum number of workers used for morsel-driven
	// execution of parallel-safe read plans. Zero or one means serial
	// execution. Plans that the analysis marks unsafe always run serially
	// regardless of this setting.
	Parallelism int
	// MorselSize is the number of scan rows per morsel (the unit of work
	// handed to a parallel worker). Zero means graph.DefaultMorselSize.
	MorselSize int
	// BatchSize is the number of rows per batch in the vectorized pipeline.
	// Zero means DefaultBatchSize (aligned with the morsel size); a negative
	// value disables vectorized execution entirely — the differential tests
	// and benchmarks use it to pin the row-at-a-time path.
	BatchSize int
	// QueryCtx is the query's governance state: cancellation, deadline and
	// memory budget. Nil means ungoverned — every check compiles down to a
	// nil-receiver early return, keeping the happy path free.
	QueryCtx *QueryCtx
}

// DefaultMaxVarLengthDepth is the homomorphism-mode depth cap.
const DefaultMaxVarLengthDepth = 15

// Executor evaluates plans against a graph. Its fields are read-only during
// execution, so the morsel workers of a parallel run share one executor.
type Executor struct {
	graph   *graph.Graph
	params  map[string]value.Value
	opts    Options
	evalCtx *eval.Context
	// qc is the query's governance state (opts.QueryCtx); nil when the query
	// is ungoverned. Shared read-only/atomically by all morsel workers, so
	// cooperative-check counters live at the call sites, never here.
	qc *QueryCtx
	// tab is the slot table of the plan being executed (set by Execute).
	// It is frozen at plan time, so sharing it across morsel workers is safe.
	tab *result.SlotTable
	// readOnly reports whether the executing plan cannot mutate the graph.
	// Read-only expansions iterate the store's live adjacency slices;
	// mutating plans iterate private copies so a DELETE emitted downstream
	// cannot pull the slice out from under the loop.
	readOnly bool
	// usedParallelism records how many workers the last Execute actually
	// used (1 for the serial path). Set before workers start; read by the
	// engine for result metadata.
	usedParallelism int
}

// New creates an executor over the graph with the given query parameters.
func New(g *graph.Graph, params map[string]value.Value, opts Options) *Executor {
	if opts.MaxVarLengthDepth <= 0 {
		opts.MaxVarLengthDepth = DefaultMaxVarLengthDepth
	}
	ex := &Executor{graph: g, params: params, opts: opts, qc: opts.QueryCtx}
	ex.evalCtx = &eval.Context{Params: params, PatternPredicate: ex.patternPredicate}
	return ex
}

// Execute runs the plan and returns the result table. Parallel-safe plans
// execute morsel-driven when the executor's Parallelism option exceeds one
// and the scan is large enough to amortise the worker pool; everything else
// takes the serial tuple-at-a-time path.
//
// Execute is the panic-containment boundary: a panicking operator (or scalar
// function) unwinds through the deferred cleanups — pooled batches, ID sets
// and pipeline state are released on the way out — and surfaces as a
// *PanicError instead of killing the process. The morsel workers of a
// parallel run carry their own recovery (a panic on a plain goroutine would
// bypass this one; see executeParallel).
func (ex *Executor) Execute(p *plan.Plan) (tbl *result.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			tbl, err = nil, newPanicError(r)
		}
	}()
	if err := ex.qc.Err(); err != nil {
		// Already canceled (client gone, deadline passed while queued):
		// don't start work.
		return nil, err
	}
	ex.usedParallelism = 1
	ex.readOnly = p.ReadOnly
	ex.tab = p.Slots
	if ex.tab == nil {
		// Hand-built plan (tests): compute slots locally. The plan itself is
		// not annotated — it may be shared, and plans are immutable after
		// publication.
		ex.tab = plan.ComputeSlots(p)
	}
	pl := p.Pipeline
	if pl == nil {
		pl = plan.AnalyzePipeline(p)
	}
	if ex.opts.Parallelism > 1 && pl.Parallel() {
		if tbl, done, err := ex.executeParallel(p, pl); done {
			return tbl, err
		}
	}
	if ex.batchSize() > 0 && pl.Batched > 0 {
		if tbl, done, err := ex.executeVectorized(p, pl); done {
			return tbl, err
		}
	}
	tbl = result.NewTable(p.Columns...)
	err = ex.run(p.Root, nil, func(r result.Record) error {
		// The table outlives the emit call; take ownership of the row.
		if err := ex.qc.ChargeRecord(r); err != nil {
			return err
		}
		tbl.Add(r.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}

// UsedParallelism reports how many workers the last Execute call used (1 for
// a serial run).
func (ex *Executor) UsedParallelism() int {
	if ex.usedParallelism < 1 {
		return 1
	}
	return ex.usedParallelism
}

// emitFn consumes one produced row; returning an error stops production.
// The record is borrowed: it is only valid for the duration of the call, and
// the producer may rebind its slots for the next row as soon as emit
// returns. Consumers that retain rows must Clone them.
type emitFn func(result.Record) error

// run executes the operator, producing rows into emit. arg is the outer row
// supplied to Argument leaves (used by Optional and other apply-style
// operators); it is nil at the top level.
func (ex *Executor) run(op plan.Operator, arg *result.Record, emit emitFn) error {
	switch o := op.(type) {
	case *plan.Start:
		r := result.NewSlotted(ex.tab)
		return emit(r)
	case *plan.Argument:
		if arg == nil {
			return errors.New("exec: Argument operator outside of an apply context")
		}
		// The outer row is borrowed from the enclosing pipeline; the inner
		// plan will rebind slots, so it works on its own copy.
		return emit(arg.Clone())

	case *nodeSource:
		// Morsel source of a parallel run: one row per node of the morsel
		// over the unit record (the scan's Input is known to be Start). The
		// single row buffer is rebound per node.
		r := result.NewSlotted(ex.tab)
		tick := 0
		for _, n := range o.nodes {
			if err := ex.qc.Tick(&tick); err != nil {
				return err
			}
			r.Set(o.varName, value.NewNode(n))
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	case *vecSource:
		// Vectorized segment of a serial run or of one morsel: batches flow
		// through the kernel chain and surviving rows re-enter this row
		// pipeline through the batch adapter.
		return ex.runVectorized(o, emit)
	case *rowSource:
		// Merged-stream source: replays the rows gathered at the barrier
		// into the serial tail of a parallel plan. The rows are owned by the
		// buffer, which is discarded afterwards, so they can be emitted (and
		// scribbled on by the tail) directly.
		tick := 0
		for _, r := range o.rows {
			if err := ex.qc.Tick(&tick); err != nil {
				return err
			}
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil

	case *plan.AllNodesScan:
		// The cancellation tick counter is hoisted out of the per-row closure:
		// an inner scan of a cross product is re-activated once per outer row,
		// and the cumulative count across activations is what bounds the time
		// between checks.
		tick := 0
		return ex.run(o.Input, arg, func(r result.Record) error {
			for _, n := range ex.graph.Nodes() {
				if err := ex.qc.Tick(&tick); err != nil {
					return err
				}
				r.Set(o.Var, value.NewNode(n))
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
	case *plan.NodeByLabelScan:
		tick := 0
		return ex.run(o.Input, arg, func(r result.Record) error {
			for _, n := range ex.graph.NodesByLabel(o.Label) {
				if err := ex.qc.Tick(&tick); err != nil {
					return err
				}
				r.Set(o.Var, value.NewNode(n))
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
	case *plan.NodeIndexSeek:
		tick := 0
		return ex.run(o.Input, arg, func(r result.Record) error {
			nodes, err := ex.indexSeekNodes(o, r)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				if err := ex.qc.Tick(&tick); err != nil {
					return err
				}
				r.Set(o.Var, value.NewNode(n))
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
	case *plan.NodeIndexRangeSeek:
		tick := 0
		return ex.run(o.Input, arg, func(r result.Record) error {
			nodes, err := ex.rangeSeekNodes(o, r)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				if err := ex.qc.Tick(&tick); err != nil {
					return err
				}
				r.Set(o.Var, value.NewNode(n))
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
	case *plan.NodeIndexPrefixSeek:
		tick := 0
		return ex.run(o.Input, arg, func(r result.Record) error {
			nodes, err := ex.prefixSeekNodes(o, r)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				if err := ex.qc.Tick(&tick); err != nil {
					return err
				}
				r.Set(o.Var, value.NewNode(n))
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})

	case *plan.Expand:
		return ex.run(o.Input, arg, func(r result.Record) error {
			return ex.expand(o, r, emit)
		})

	case *plan.Filter:
		return ex.run(o.Input, arg, func(r result.Record) error {
			ok, err := ex.evalCtx.EvaluateTruth(o.Predicate, r)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return emit(r)
		})

	case *plan.Optional:
		// argRow is hoisted out of the per-row closure so taking its address
		// does not allocate per driving row.
		var argRow result.Record
		return ex.run(o.Input, arg, func(outer result.Record) error {
			matched := false
			argRow = outer
			err := ex.run(o.Inner, &argRow, func(r result.Record) error {
				matched = true
				return emit(r)
			})
			if err != nil {
				return err
			}
			if matched {
				return nil
			}
			r := outer.Clone()
			for _, v := range o.IntroducedVars {
				if !r.Has(v) {
					r.Set(v, value.Null())
				}
			}
			return emit(r)
		})

	case *plan.ProjectPath:
		return ex.run(o.Input, arg, func(r result.Record) error {
			p, err := ex.buildPath(o.Part, r)
			if err != nil {
				return err
			}
			r.Set(o.Var, p)
			return emit(r)
		})

	case *plan.Unwind:
		tick := 0
		return ex.run(o.Input, arg, func(r result.Record) error {
			v, err := ex.evalCtx.Evaluate(o.Expr, r)
			if err != nil {
				return err
			}
			// Figure 7: a list unwinds element-wise, an empty list and null
			// produce no rows, and any other value produces a single row.
			switch {
			case value.IsNull(v):
				return nil
			case v.Kind() == value.KindList:
				l, _ := value.AsList(v)
				for _, el := range l.Elements() {
					if err := ex.qc.Tick(&tick); err != nil {
						return err
					}
					r.Set(o.Alias, el)
					if err := emit(r); err != nil {
						return err
					}
				}
				return nil
			default:
				r.Set(o.Alias, v)
				return emit(r)
			}
		})

	case *plan.Project:
		// The projection writes into its own scratch row (a copy of the
		// input plus the items) instead of the borrowed input row: an item
		// may shadow an upstream variable (RETURN a.name AS a), and the
		// operator that bound that variable will not rebind it before its
		// next emission.
		out := result.NewSlotted(ex.tab)
		return ex.run(o.Input, arg, func(r result.Record) error {
			out.CopyFrom(r)
			for _, item := range o.Items {
				v, err := ex.evalCtx.Evaluate(item.Expr, r)
				if err != nil {
					return err
				}
				out.Set(item.Name, v)
			}
			return emit(out)
		})

	case *plan.Aggregate:
		return ex.runAggregate(o, arg, emit)

	case *plan.Distinct:
		seen := map[string]bool{}
		vals := make([]value.Value, len(o.Columns))
		var keyBuf []byte
		return ex.run(o.Input, arg, func(r result.Record) error {
			for i, c := range o.Columns {
				vals[i] = r.Get(c)
			}
			keyBuf = value.AppendGroupKeyOf(keyBuf[:0], vals...)
			// m[string(buf)] compiles without allocating; the key string is
			// only materialised for rows seen for the first time.
			if seen[string(keyBuf)] {
				return nil
			}
			// The set retains one key string per distinct row; charge it.
			if err := ex.qc.Charge(int64(len(keyBuf)) + dedupEntryCost); err != nil {
				return err
			}
			seen[string(keyBuf)] = true
			return emit(r)
		})

	case *plan.Sort:
		var rows []result.Record
		if err := ex.run(o.Input, arg, func(r result.Record) error {
			// Sort materializes its whole input; every buffered clone is
			// charged against the query's memory budget.
			if err := ex.qc.ChargeRecord(r); err != nil {
				return err
			}
			rows = append(rows, r.Clone())
			return nil
		}); err != nil {
			return err
		}
		keys := make([][]value.Value, len(rows))
		for i, r := range rows {
			keys[i] = make([]value.Value, len(o.Keys))
			for j, k := range o.Keys {
				v, err := ex.sortKeyValue(k.Expr, r)
				if err != nil {
					return err
				}
				keys[i][j] = v
			}
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for j, k := range o.Keys {
				cmp := value.Compare(keys[idx[a]][j], keys[idx[b]][j])
				if k.Descending {
					cmp = -cmp
				}
				if cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
		for _, i := range idx {
			if err := emit(rows[i]); err != nil {
				return err
			}
		}
		return nil

	case *plan.Skip:
		nVal, err := ex.constantCount(o.Count, "SKIP")
		if err != nil {
			return err
		}
		skipped := int64(0)
		return ex.run(o.Input, arg, func(r result.Record) error {
			if skipped < nVal {
				skipped++
				return nil
			}
			return emit(r)
		})

	case *plan.Limit:
		nVal, err := ex.constantCount(o.Count, "LIMIT")
		if err != nil {
			return err
		}
		stop := errors.New("limit reached")
		count := int64(0)
		err = ex.run(o.Input, arg, func(r result.Record) error {
			if count >= nVal {
				return stop
			}
			count++
			if err := emit(r); err != nil {
				return err
			}
			if count >= nVal {
				return stop
			}
			return nil
		})
		if errors.Is(err, stop) {
			return nil
		}
		return err

	case *plan.SelectColumns:
		// The scope cut reuses one scratch row: wiped, then rebound to just
		// the selected columns for every input row.
		out := result.NewSlotted(ex.tab)
		return ex.run(o.Input, arg, func(r result.Record) error {
			out.Zero()
			for _, c := range o.Columns {
				out.Set(c, r.Get(c))
			}
			return emit(out)
		})

	case *plan.Union:
		if o.All {
			if err := ex.run(o.Left, arg, emit); err != nil {
				return err
			}
			return ex.run(o.Right, arg, emit)
		}
		seen := map[string]bool{}
		vals := make([]value.Value, len(o.Columns))
		var keyBuf []byte
		dedup := func(r result.Record) error {
			for i, c := range o.Columns {
				vals[i] = r.Get(c)
			}
			keyBuf = value.AppendGroupKeyOf(keyBuf[:0], vals...)
			if seen[string(keyBuf)] {
				return nil
			}
			if err := ex.qc.Charge(int64(len(keyBuf)) + dedupEntryCost); err != nil {
				return err
			}
			seen[string(keyBuf)] = true
			return emit(r)
		}
		if err := ex.run(o.Left, arg, dedup); err != nil {
			return err
		}
		return ex.run(o.Right, arg, dedup)

	case *plan.CreateOp:
		return ex.run(o.Input, arg, func(r result.Record) error {
			out, err := ex.createPattern(o.Pattern, r)
			if err != nil {
				return err
			}
			return emit(out)
		})
	case *plan.MergeOp:
		return ex.run(o.Input, arg, func(r result.Record) error {
			return ex.merge(o, r, emit)
		})
	case *plan.DeleteOp:
		return ex.run(o.Input, arg, func(r result.Record) error {
			if err := ex.deleteEntities(o, r); err != nil {
				return err
			}
			return emit(r)
		})
	case *plan.SetOp:
		return ex.run(o.Input, arg, func(r result.Record) error {
			if err := ex.applySetItems(o.Items, r); err != nil {
				return err
			}
			return emit(r)
		})
	case *plan.RemoveOp:
		return ex.run(o.Input, arg, func(r result.Record) error {
			if err := ex.applyRemoveItems(o.Items, r); err != nil {
				return err
			}
			return emit(r)
		})

	default:
		return fmt.Errorf("exec: unsupported operator %T", op)
	}
}

// sortKeyValue evaluates an ORDER BY key over a row. If the textual form of
// the expression matches a projected column name (e.g. ORDER BY r.name after
// RETURN r.name), that column is used directly so that ordering works after
// projection and aggregation.
func (ex *Executor) sortKeyValue(e ast.Expr, r result.Record) (value.Value, error) {
	if name := e.String(); r.Has(name) {
		return r.Get(name), nil
	}
	return ex.evalCtx.Evaluate(e, r)
}

// constantCount evaluates a SKIP/LIMIT expression (which may reference
// parameters but not variables) to a non-negative integer.
func (ex *Executor) constantCount(e ast.Expr, what string) (int64, error) {
	v, err := ex.evalCtx.Evaluate(e, result.NewRecord())
	if err != nil {
		return 0, err
	}
	n, ok := value.AsInt(v)
	if !ok || n < 0 {
		return 0, fmt.Errorf("exec: %s requires a non-negative integer, got %s", what, v.String())
	}
	return n, nil
}

// aggGroup is the accumulated state of one group: its grouping-key values
// and one aggregator per aggregation item.
type aggGroup struct {
	keyVals []value.Value
	aggs    []eval.Aggregator
}

// aggState accumulates an Aggregate operator's groups. The serial path feeds
// it all input rows; the parallel path builds one state per morsel and folds
// them together at the barrier (in morsel order, so first-seen group order
// and order-sensitive aggregates match the serial engine).
type aggState struct {
	ex     *Executor
	o      *plan.Aggregate
	groups map[string]*aggGroup
	order  []string // first-seen group order
	// keyScratch holds the current row's grouping-key values; it is copied
	// only when the row opens a new group. keyBuf is the reused group-key
	// encoding buffer: rows of existing groups never materialise the key
	// string (the groups lookup goes through string(keyBuf), which Go
	// compiles allocation-free).
	keyScratch []value.Value
	keyBuf     []byte
	// retainedRowCost is the estimated bytes an input row adds to aggregator
	// state beyond its group entry: collect() keeps every value, DISTINCT
	// aggregators keep every distinct one. Zero for bounded aggregators
	// (count/sum/min/...), whose state does not grow with the input.
	retainedRowCost int64
	// global is the single group of an aggregation without grouping keys,
	// once opened; rows then skip the key encoding and the map lookup.
	global *aggGroup
}

func (ex *Executor) newAggState(o *plan.Aggregate) *aggState {
	s := &aggState{ex: ex, o: o, groups: map[string]*aggGroup{}, keyScratch: make([]value.Value, len(o.Grouping))}
	for _, a := range o.Aggregations {
		if a.Func == "collect" || a.Distinct {
			s.retainedRowCost += aggRetainedValueCost
		}
	}
	return s
}

func (s *aggState) newGroup(keyVals []value.Value) (*aggGroup, error) {
	g := &aggGroup{keyVals: keyVals, aggs: make([]eval.Aggregator, 0, len(s.o.Aggregations))}
	for _, a := range s.o.Aggregations {
		if a.Arg == nil {
			g.aggs = append(g.aggs, eval.NewCountStarAggregator())
			continue
		}
		agg, err := eval.NewAggregator(a.Func, a.Distinct)
		if err != nil {
			return nil, err
		}
		g.aggs = append(g.aggs, agg)
	}
	return g, nil
}

// group returns the group of the grouping-key values in keyScratch, opening
// a new one on first sight, and charges the query for the row's share of
// aggregator state. The row path (add) and the batch sink (aggSink) both go
// through it, so they charge the same bytes.
func (s *aggState) group() (*aggGroup, error) {
	g := s.global
	if g == nil {
		s.keyBuf = value.AppendGroupKeyOf(s.keyBuf[:0], s.keyScratch...)
		var ok bool
		g, ok = s.groups[string(s.keyBuf)]
		if !ok {
			// A new group materializes its key string, key values and one
			// aggregator per item; charge before allocating.
			cost := int64(len(s.keyBuf)) + aggGroupCost + int64(len(s.o.Aggregations))*aggStateCost
			if err := s.ex.qc.Charge(cost); err != nil {
				return nil, err
			}
			var err error
			g, err = s.newGroup(append([]value.Value(nil), s.keyScratch...))
			if err != nil {
				return nil, err
			}
			key := string(s.keyBuf)
			s.groups[key] = g
			s.order = append(s.order, key)
		}
		if len(s.o.Grouping) == 0 {
			s.global = g
		}
	}
	if s.retainedRowCost > 0 {
		// collect()/DISTINCT aggregators grow with their input even within
		// one group.
		if err := s.ex.qc.Charge(s.retainedRowCost); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// add folds one input row into the state.
func (s *aggState) add(r result.Record) error {
	for i, gi := range s.o.Grouping {
		v, err := s.ex.evalCtx.Evaluate(gi.Expr, r)
		if err != nil {
			return err
		}
		s.keyScratch[i] = v
	}
	g, err := s.group()
	if err != nil {
		return err
	}
	for i, a := range s.o.Aggregations {
		if a.Arg == nil {
			if err := g.aggs[i].Add(value.Null()); err != nil {
				return err
			}
			continue
		}
		v, err := s.ex.evalCtx.Evaluate(a.Arg, r)
		if err != nil {
			return err
		}
		if err := g.aggs[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// merge folds another partial state (over the same Aggregate operator) into
// this one; the other state's groups keep their relative first-seen order.
func (s *aggState) merge(other *aggState) error {
	if other == nil {
		return nil
	}
	for _, key := range other.order {
		og := other.groups[key]
		g, ok := s.groups[key]
		if !ok {
			s.groups[key] = og
			s.order = append(s.order, key)
			continue
		}
		for i := range g.aggs {
			if err := g.aggs[i].Merge(og.aggs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit produces the aggregated output rows in first-seen group order. The
// rows are freshly allocated (one per group), so the serial tail may rebind
// their slots freely.
func (s *aggState) emit(emit emitFn) error {
	// A global aggregation (no grouping keys) over an empty input still
	// produces one row, e.g. MATCH (n:Missing) RETURN count(n) = 0.
	if len(s.groups) == 0 && len(s.o.Grouping) == 0 {
		g, err := s.newGroup(nil)
		if err != nil {
			return err
		}
		s.groups[""] = g
		s.order = append(s.order, "")
	}
	for _, key := range s.order {
		g := s.groups[key]
		out := result.NewSlotted(s.ex.tab)
		for i, gi := range s.o.Grouping {
			out.Set(gi.Name, g.keyVals[i])
		}
		for i, a := range s.o.Aggregations {
			out.Set(a.Name, g.aggs[i].Result())
		}
		if err := emit(out); err != nil {
			return err
		}
	}
	return nil
}

func (ex *Executor) runAggregate(o *plan.Aggregate, arg *result.Record, emit emitFn) error {
	st := ex.newAggState(o)
	if err := ex.run(o.Input, arg, st.add); err != nil {
		return err
	}
	return st.emit(emit)
}
