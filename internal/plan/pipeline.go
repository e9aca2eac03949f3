package plan

// Pipeline analysis for batched and morsel-driven execution. A plan has a
// pipeline when it is a read-only linear operator chain whose leaf directly
// over Start enumerates a node set: a full scan (AllNodesScan,
// NodeByLabelScan) or an index seek, whose bound expressions are parameters
// and literals only, since no pattern variable is in scope at the leaf.
// Above that leaf the analysis marks two prefixes of the same operator chain:
//
//   - the batched prefix: operators with batched kernels (Filter, Project,
//     Limit, SelectColumns, single-hop Expand, and Aggregate as its terminal
//     kernel); the first operator without one is the boundary, and
//     everything from it upward runs on the row path, fed one row at a time
//     from the batch adapter. An Aggregate ends the prefix: its groups feed
//     the row path above it once the scan is done;
//   - the streaming prefix: per-row operators that may run inside a morsel
//     worker. The first pipeline breaker ends it; an Aggregate there is
//     evaluated with morsel-local partial states, and everything above runs
//     serially over the stream merged in morsel order.
//
// A morsel worker runs the shorter of the two prefixes batched and the rest
// of its streaming prefix row-at-a-time; when the batched prefix reaches the
// partial Aggregate, the worker's batches fold straight into its partial
// state.
//
// The same walk records slot liveness: for every operator, the names that
// some operator above it (or the plan's output) may read. The planner
// applies it once (DropDeadBindings), so Expand leaves a binding nobody
// reads unwritten and an anonymous relationship is never boxed. The
// analysis is purely structural, so the planner computes it once per
// compiled plan and the executor reuses it on every run (plans are cached).

import (
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/eval"
)

// Pipeline is the result of analysing a plan for batched and morsel-driven
// execution (surfaced by EXPLAIN as its vectorized: and parallel: lines).
type Pipeline struct {
	// Scan is the leaf directly over Start whose node set is chunked into
	// batches and partitioned into morsels; nil when the plan has none, in
	// which case Boundary and Serial both say why.
	Scan Operator
	// Ops lists the operators above Scan, in bottom-up order (closest to the
	// scan first).
	Ops []Operator

	// Batched is the length of the prefix of Ops with batched kernels.
	Batched int
	// Boundary explains where batching stops: the reason the first operator
	// above the batched prefix keeps the row path, or why nothing is batched
	// when Batched is zero ("" when all of Ops are batched).
	Boundary string

	// Streaming is the length of the prefix of Ops that runs inside morsel
	// workers.
	Streaming int
	// Agg, when non-nil, is Ops[Streaming]: an Aggregate evaluated with
	// morsel-local partial states that are combined at the barrier in morsel
	// order, so group order matches the serial engine.
	Agg *Aggregate
	// Serial is the reason the plan falls back to serial execution; "" when
	// it is parallel-safe. Streaming and Agg are meaningful only then.
	Serial string

	// lastRead maps each name an operator of Ops reads to the index of the
	// last one that does (len(Ops) for the plan's output columns); readsAll
	// is the index of the last operator that may read any name, -1 if none.
	lastRead map[string]int
	readsAll int
}

// readAbove reports whether an operator above op, or the plan's output, may
// read name. It answers true for an operator outside Ops.
func (p *Pipeline) readAbove(op Operator, name string) bool {
	i := slices.Index(p.Ops, op)
	if i < 0 || p.readsAll > i {
		return true
	}
	last, ok := p.lastRead[name]
	return ok && last > i
}

// BatchedAgg reports whether the batched prefix ends in an Aggregate.
func (p *Pipeline) BatchedAgg() bool {
	if p.Batched == 0 {
		return false
	}
	_, ok := p.Ops[p.Batched-1].(*Aggregate)
	return ok
}

// Parallel reports whether the plan can execute with morsel parallelism.
func (p *Pipeline) Parallel() bool { return p.Serial == "" }

// Rest lists the operators above the morsel merge point, in bottom-up
// order; they run serially over the merged stream.
func (p *Pipeline) Rest() []Operator {
	if p.Agg != nil {
		return p.Ops[p.Streaming+1:]
	}
	return p.Ops[p.Streaming:]
}

// parallelRole is how an operator takes part in a morsel-parallel run.
type parallelRole int

const (
	// notParallelSafe operators force the whole plan onto the serial path.
	notParallelSafe parallelRole = iota
	// streaming operators read only the graph and their input row and carry
	// no state across rows, so they may run inside a morsel worker.
	streaming
	// barrier operators (Sort, Aggregate) materialise their whole input.
	barrier
	// tailOnly operators run serially above the merge point.
	tailOnly
	// earlyExit operators (SKIP, LIMIT) run above the merge point only when
	// a barrier below them already materialises everything; below one, the
	// serial engine's early exit must be preserved.
	earlyExit
)

// opClass is an operator's classification for both prefixes.
type opClass struct {
	// kernel is the short name of the operator's batched kernel, rendered by
	// EXPLAIN; "" when the operator keeps the row path.
	kernel string
	// rowReason explains why an operator without a kernel keeps the row path.
	rowReason string
	role      parallelRole
}

// classify returns the operator's batched kernel (or why it has none) and
// its morsel-parallel role. Expand streams in all its forms: relationship
// uniqueness is tracked per input row, and a row never spans two morsels,
// so there is no uniqueness coupling across partitions.
func classify(op Operator) opClass {
	switch o := op.(type) {
	case *Filter:
		return opClass{kernel: "filter", role: streaming}
	case *Project:
		return opClass{kernel: "project", role: streaming}
	case *SelectColumns:
		return opClass{kernel: "select", role: streaming}
	case *Expand:
		switch {
		case o.VarLength:
			return opClass{rowReason: "variable-length expand keeps the row path", role: streaming}
		case o.ExpandInto:
			return opClass{rowReason: "ExpandInto keeps the row path", role: streaming}
		}
		return opClass{kernel: "expand", role: streaming}
	case *Limit:
		return opClass{kernel: "limit", role: earlyExit}
	case *Skip:
		return opClass{rowReason: "Skip keeps the row path", role: earlyExit}
	case *Unwind:
		return opClass{rowReason: "Unwind keeps the row path", role: streaming}
	case *ProjectPath:
		return opClass{rowReason: "ProjectPath keeps the row path", role: streaming}
	case *Optional:
		return opClass{rowReason: "Optional runs its inner plan per row", role: streaming}
	case *Aggregate:
		return opClass{kernel: "aggregate", role: barrier}
	case *Sort:
		return opClass{rowReason: "Sort materializes rows", role: barrier}
	case *Distinct:
		return opClass{rowReason: "Distinct keeps the row path", role: tailOnly}
	case *AllNodesScan, *NodeByLabelScan, *NodeIndexSeek, *NodeIndexRangeSeek, *NodeIndexPrefixSeek:
		return opClass{rowReason: op.Describe() + " keeps the row path", role: tailOnly}
	}
	return opClass{rowReason: op.Describe() + " keeps the row path"}
}

// noPipeline returns the analysis of a plan without a partitionable leaf.
func noPipeline(serial, boundary string) *Pipeline {
	return &Pipeline{Serial: serial, Boundary: boundary}
}

// AnalyzePipeline flattens the plan's operator chain once, classifies each
// operator once, and marks the batched and streaming prefixes above the
// scan leaf.
func AnalyzePipeline(p *Plan) *Pipeline {
	if !p.ReadOnly {
		return noPipeline("updating query", "updating query")
	}
	// Flatten the operator chain leaf-first. Union has two inputs and
	// Source() only follows the left one, so its presence ends the walk.
	var ops []Operator
	for op := p.Root; op != nil; op = op.Source() {
		if _, ok := op.(*Union); ok {
			return noPipeline("UNION combines two plans", "UNION combines two plans")
		}
		ops = append(ops, op)
	}
	slices.Reverse(ops)
	if len(ops) < 2 {
		return noPipeline("no scan to partition", "no scan to batch")
	}
	if _, ok := ops[0].(*Start); !ok {
		return noPipeline("leaf is not Start", "leaf is not Start")
	}
	switch ops[1].(type) {
	case *AllNodesScan, *NodeByLabelScan, *NodeIndexSeek, *NodeIndexRangeSeek, *NodeIndexPrefixSeek:
	default:
		return noPipeline(ops[1].Describe()+" is not a partitionable scan", ops[1].Describe()+" is not a batchable scan")
	}

	pl := &Pipeline{Scan: ops[1], Ops: ops[2:]}
	batching, inStreaming := true, true
	// barrierBelow records whether a Sort or Aggregate sits below the
	// current operator (see earlyExit).
	barrierBelow := false
	for _, op := range pl.Ops {
		c := classify(op)
		if batching {
			switch {
			case pl.BatchedAgg():
				batching = false
				pl.Boundary = "Aggregate ends the batched prefix"
			case c.kernel == "":
				batching = false
				pl.Boundary = c.rowReason
			default:
				pl.Batched++
			}
		}
		if pl.Serial != "" {
			continue
		}
		if inStreaming {
			if c.role == streaming {
				pl.Streaming++
				continue
			}
			inStreaming = false
			if agg, ok := op.(*Aggregate); ok {
				pl.Agg = agg
				barrierBelow = true
				continue
			}
		}
		switch c.role {
		case barrier:
			barrierBelow = true
		case earlyExit:
			if !barrierBelow {
				pl.Serial = op.Describe() + " depends on serial early exit"
			}
		case notParallelSafe:
			pl.Serial = op.Describe() + " is not parallel-safe"
		}
	}
	if pl.Batched == 0 && pl.Boundary == "" {
		pl.Boundary = "no per-row work above the scan"
	}
	if pl.Serial == "" && pl.Streaming == 0 && pl.Agg == nil {
		pl.Serial = "no per-row work above the scan"
	}
	pl.liveness(p.Columns)
	return pl
}

// liveness records, for every name the operators of Ops or the plan's
// output read, the last reader. A name is never dropped at a scope cut,
// which only errs on the side of binding.
func (p *Pipeline) liveness(columns []string) {
	p.lastRead = make(map[string]int)
	p.readsAll = -1
	for i, op := range p.Ops {
		read := func(name string) { p.lastRead[name] = i }
		if !operatorReads(op, read) {
			p.readsAll = i
		}
	}
	for _, c := range columns {
		p.lastRead[c] = len(p.Ops)
	}
}

// operatorReads calls read for every name op reads from its input rows. It
// returns false when op may read any name: Optional hands the whole row to
// its inner plan, and operators not modeled here are assumed to.
func operatorReads(op Operator, read func(string)) bool {
	names := func(ns []string) {
		for _, n := range ns {
			read(n)
		}
	}
	expr := func(e ast.Expr) { names(eval.Variables(e)) }
	switch o := op.(type) {
	case *Filter:
		expr(o.Predicate)
	case *Project:
		for _, it := range o.Items {
			expr(it.Expr)
		}
	case *Aggregate:
		for _, g := range o.Grouping {
			expr(g.Expr)
		}
		for _, a := range o.Aggregations {
			expr(a.Arg)
		}
	case *Sort:
		for _, k := range o.Keys {
			expr(k.Expr)
			// The executor reads a key first as a column named after its
			// text (ORDER BY r.name after RETURN r.name).
			read(k.Expr.String())
		}
	case *Expand:
		read(o.FromVar)
		if o.ExpandInto {
			read(o.ToVar)
		}
		names(o.UniqueRels)
		names(o.UniqueNodes)
		if o.RelProperties != nil {
			expr(o.RelProperties)
		}
	case *SelectColumns:
		names(o.Columns)
	case *Distinct:
		names(o.Columns)
	case *ProjectPath:
		names(o.Part.Variables())
	case *Unwind:
		expr(o.Expr)
	case *Limit, *Skip, *AllNodesScan, *NodeByLabelScan:
		// SKIP and LIMIT counts are constants; a scan only binds.
	default:
		return false
	}
	return true
}

// DropDeadBindings applies slot liveness to the plan's operators: an Expand
// whose relationship no operator above reads loses its RelVar, so neither
// the expand kernel nor the row path boxes it, and one whose target nobody
// reads is marked ToUnread, so the kernel leaves that slot unbound. The
// planner calls it once, before the plan gets its slots and is cached.
func (p *Pipeline) DropDeadBindings() {
	for _, op := range p.Ops {
		o, ok := op.(*Expand)
		if !ok {
			continue
		}
		if o.RelVar != "" && !p.readAbove(o, o.RelVar) {
			o.RelVar = ""
		}
		o.ToUnread = !o.ExpandInto && !p.readAbove(o, o.ToVar)
	}
}

// describeBatched renders the batched segment for EXPLAIN:
// "batched NodeByLabelScan(p:Person) -> filter -> project".
func (p *Pipeline) describeBatched() string {
	var sb strings.Builder
	sb.WriteString("batched ")
	sb.WriteString(p.Scan.Describe())
	for _, op := range p.Ops[:p.Batched] {
		sb.WriteString(" -> ")
		sb.WriteString(classify(op).kernel)
	}
	return sb.String()
}
