package exec

// Morsel-driven parallel execution of read-only plans. The scan at the
// bottom of a parallel-safe plan (see plan.Pipeline) is partitioned into
// morsels — fixed-size slices of the node array — and a bounded pool of
// workers runs the per-row streaming segment of the plan over morsels
// pulled from a shared counter. Results meet at a barrier, always in morsel
// order, so every worker count reproduces the serial row order exactly:
//
//   - plans with an Aggregate combine morsel-local partial aggregation
//     states (so group order and order-sensitive aggregates like collect
//     match the serial engine);
//   - all other plans concatenate per-morsel row buffers, which also makes
//     ORDER BY output — including stable-sort tie-breaking — and Distinct's
//     surviving representative rows byte-identical to serial execution.
//
// The operators above the merge point run serially over the merged stream.
// Workers share the executor (its fields are read-only during execution) and
// run under the engine's shared query lock, so they see one consistent
// snapshot of the graph.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/result"
)

// nodeSource is the synthetic leaf operator that replaces Start+scan inside
// a morsel worker: it produces one row per node of its morsel.
type nodeSource struct {
	varName string
	nodes   []*graph.Node
}

func (s *nodeSource) Describe() string      { return fmt.Sprintf("MorselScan(%s)", s.varName) }
func (s *nodeSource) Source() plan.Operator { return nil }

// rowSource is the synthetic leaf operator that feeds the merged parallel
// stream into the serial tail of the plan.
type rowSource struct {
	rows []result.Record
}

func (s *rowSource) Describe() string      { return "MergedRows" }
func (s *rowSource) Source() plan.Operator { return nil }

// buildChain rebuilds the operator chain (bottom-up order) on top of a new
// input, shallow-copying each operator. The analysis only admits operator
// types listed here, so an error indicates a bug rather than a user query.
func buildChain(input plan.Operator, ops []plan.Operator) (plan.Operator, error) {
	cur := input
	for _, op := range ops {
		switch o := op.(type) {
		case *plan.Filter:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Expand:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Project:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Unwind:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.ProjectPath:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Optional:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.SelectColumns:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Sort:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Distinct:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Skip:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Limit:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.Aggregate:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.AllNodesScan:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeByLabelScan:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeIndexSeek:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeIndexRangeSeek:
			c := *o
			c.Input = cur
			cur = &c
		case *plan.NodeIndexPrefixSeek:
			c := *o
			c.Input = cur
			cur = &c
		default:
			return nil, fmt.Errorf("exec: operator %T cannot be rebased for parallel execution", op)
		}
	}
	return cur, nil
}

// executeParallel attempts a morsel-driven run of a parallel-safe plan.
// done is false when the current scan size does not warrant parallelism (or
// a leaf seek's operand fails to evaluate) and the caller should take the
// serial path.
func (ex *Executor) executeParallel(p *plan.Plan, pl *plan.Pipeline) (tbl *result.Table, done bool, err error) {
	varName, nodes, ok := ex.leafNodes(pl.Scan)
	if !ok {
		return nil, false, nil
	}
	morsels := graph.Morsels(nodes, ex.opts.MorselSize)
	// A scan that fits in one morsel cannot amortise the pool; stay serial.
	if len(morsels) < 2 {
		return nil, false, nil
	}
	workers := min(ex.opts.Parallelism, len(morsels))
	ex.usedParallelism = workers

	// Each worker pushes its morsel through the batched kernels as far as
	// both prefixes reach, and runs the remainder of the streaming segment
	// row-at-a-time. When the batched prefix reaches the partial Aggregate,
	// the worker's batches fold straight into its partial state.
	vecK := 0
	foldAgg := false
	if ex.batchSize() > 0 {
		vecK = min(pl.Batched, pl.Streaming)
		foldAgg = pl.Agg != nil && pl.Batched == pl.Streaming+1
	}

	outs := make([]morselOut, len(morsels))
	errs := make([]error, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panic on a worker goroutine would bypass Execute's recovery
			// and kill the process; contain it here and fan the failure out
			// to the other workers like any morsel error. The worker's pooled
			// state (batches, ID sets) is released by the deferred handlers
			// inside the unwound pipeline.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = newPanicError(r)
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(morsels) {
					return
				}
				// Cancellation check at the morsel boundary: a canceled query
				// stops all workers within one morsel of work each (the scan
				// loops inside the morsel tick at row granularity too).
				err := ex.qc.Err()
				if err == nil {
					outs[i], err = ex.runMorsel(pl, varName, morsels[i], vecK, foldAgg)
				}
				if err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, true, e
		}
	}

	// Barrier: merge morsel outputs, in morsel order, into the input stream
	// of the serial tail.
	var rows []result.Record
	if pl.Agg != nil {
		merged := ex.newAggState(pl.Agg)
		for i := range outs {
			if err := merged.merge(outs[i].agg); err != nil {
				return nil, true, err
			}
		}
		if err := merged.emit(func(r result.Record) error {
			rows = append(rows, r)
			return nil
		}); err != nil {
			return nil, true, err
		}
	} else {
		total := 0
		for i := range outs {
			total += len(outs[i].rows)
		}
		rows = make([]result.Record, 0, total)
		for i := range outs {
			rows = append(rows, outs[i].rows...)
		}
	}

	top, err := buildChain(&rowSource{rows: rows}, pl.Rest())
	if err != nil {
		return nil, true, err
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

// morselOut is one morsel's share of a parallel run: its buffered rows, or
// its partial aggregation state.
type morselOut struct {
	rows []result.Record
	agg  *aggState
}

// runMorsel runs the streaming segment of pl over one morsel: batched for
// the first vecK operators, or all the way into the partial Aggregate when
// foldAgg is set, and row-at-a-time for the rest.
func (ex *Executor) runMorsel(pl *plan.Pipeline, varName string, nodes []*graph.Node, vecK int, foldAgg bool) (out morselOut, err error) {
	if foldAgg {
		out.agg = ex.newAggState(pl.Agg)
		return out, ex.foldVectorized(&vecSource{varName: varName, nodes: nodes, ops: pl.Ops[:pl.Batched]}, out.agg)
	}
	streamOps := pl.Ops[:pl.Streaming]
	var top plan.Operator
	if vecK > 0 {
		top, err = buildChain(&vecSource{varName: varName, nodes: nodes, ops: streamOps[:vecK]}, streamOps[vecK:])
	} else {
		top, err = buildChain(&nodeSource{varName: varName, nodes: nodes}, streamOps)
	}
	if err != nil {
		return out, err
	}
	if pl.Agg != nil {
		out.agg = ex.newAggState(pl.Agg)
		return out, ex.run(top, nil, out.agg.add)
	}
	err = ex.run(top, nil, func(r result.Record) error {
		// Rows are borrowed from the worker's pipeline; the buffer outlives
		// the emit, so copy (and charge the retained copy against the
		// budget).
		if err := ex.qc.ChargeRecord(r); err != nil {
			return err
		}
		out.rows = append(out.rows, r.Clone())
		return nil
	})
	return out, err
}
