// Package planner compiles Cypher ASTs into executable plans. Following the
// paper's description of Neo4j's runtime, planning is cost-informed: scan
// operators are chosen from graph statistics (label cardinalities, property
// indexes), the most selective end of each path pattern is chosen as the
// starting point, and the rest of the pattern is solved with Expand
// operators that exploit the store's direct adjacency.
package planner

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Options configures a Planner.
type Options struct {
	// Legacy disables the cost-based layers added on top of the original
	// heuristic planner: WHERE-conjunct pushdown and index-aware access-path
	// selection, cost-ordered pattern parts, and estimate annotation. The
	// differential tests compare legacy plans against cost-based plans to
	// prove plan choice never changes results.
	Legacy bool
}

// Planner builds plans for one graph (whose statistics drive scan selection).
type Planner struct {
	g           *graph.Graph
	stats       graph.Statistics
	opts        Options
	anonCounter int
}

// New creates a cost-based planner for the graph.
func New(g *graph.Graph) *Planner {
	return NewWithOptions(g, Options{})
}

// NewWithOptions creates a planner with explicit options.
func NewWithOptions(g *graph.Graph, opts Options) *Planner {
	return &Planner{g: g, stats: g.Stats(), opts: opts}
}

// Plan compiles a full query (possibly a UNION of single queries).
func (p *Planner) Plan(q *ast.Query) (*plan.Plan, error) {
	root, cols, err := p.planSingleQuery(q.Parts[0])
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(q.Parts); i++ {
		rhs, rhsCols, err := p.planSingleQuery(q.Parts[i])
		if err != nil {
			return nil, err
		}
		if len(cols) != len(rhsCols) {
			return nil, fmt.Errorf("planner: all sub-queries of a UNION must return the same number of columns")
		}
		for j := range cols {
			if cols[j] != rhsCols[j] {
				return nil, fmt.Errorf("planner: all sub-queries of a UNION must return the same column names (%q vs %q)", cols[j], rhsCols[j])
			}
		}
		root = &plan.Union{
			Left:    root,
			Right:   rhs,
			All:     q.Unions[i-1] == ast.UnionAll,
			Columns: cols,
		}
	}
	pl := &plan.Plan{Root: root, Columns: cols, ReadOnly: q.IsReadOnly()}
	// Mark the plan's batched and morsel-parallel segments once at compile
	// time; the executor (and EXPLAIN) reuse the analysis on every run.
	pl.Pipeline = plan.AnalyzePipeline(pl)
	// Unbind what nothing reads, before slots are assigned and the plan is
	// cached, so no run boxes an anonymous relationship.
	pl.Pipeline.DropDeadBindings()
	// Assign every bindable name a fixed row slot; the executor carries rows
	// as slot-indexed slices instead of per-row maps.
	pl.Slots = plan.ComputeSlots(pl)
	if !p.opts.Legacy {
		// Annotate every operator with estimated rows/cost for EXPLAIN.
		p.annotatePlan(pl)
	}
	return pl, nil
}

// scope tracks the variables currently visible to the query, in order of
// introduction.
type scope struct {
	names []string
	set   map[string]bool
}

func newScope() *scope { return &scope{set: map[string]bool{}} }

func (s *scope) add(name string) {
	if name == "" || s.set[name] {
		return
	}
	s.set[name] = true
	s.names = append(s.names, name)
}

func (s *scope) has(name string) bool { return s.set[name] }

func (s *scope) clone() *scope {
	out := newScope()
	for _, n := range s.names {
		out.add(n)
	}
	return out
}

func (p *Planner) planSingleQuery(sq *ast.SingleQuery) (plan.Operator, []string, error) {
	var op plan.Operator = &plan.Start{}
	sc := newScope()
	var columns []string
	for _, clause := range sq.Clauses {
		var err error
		switch c := clause.(type) {
		case *ast.Match:
			op, err = p.planMatch(op, c, sc)
		case *ast.Unwind:
			if err := p.checkVariables(c.Expr, sc); err != nil {
				return nil, nil, err
			}
			op = &plan.Unwind{Input: op, Expr: c.Expr, Alias: c.Alias}
			sc.add(c.Alias)
		case *ast.With:
			op, columns, err = p.planProjection(op, c.Projection, sc, c.Where)
			if err == nil {
				ns := newScope()
				for _, col := range columns {
					ns.add(col)
				}
				*sc = *ns
			}
		case *ast.Return:
			op, columns, err = p.planProjection(op, c.Projection, sc, nil)
		case *ast.Create:
			op, err = p.planCreate(op, c, sc)
		case *ast.Merge:
			op, err = p.planMerge(op, c, sc)
		case *ast.Delete:
			for _, e := range c.Exprs {
				if err := p.checkVariables(e, sc); err != nil {
					return nil, nil, err
				}
			}
			op = &plan.DeleteOp{Input: op, Detach: c.Detach, Exprs: c.Exprs}
		case *ast.Set:
			op = &plan.SetOp{Input: op, Items: c.Items}
		case *ast.Remove:
			op = &plan.RemoveOp{Input: op, Items: c.Items}
		default:
			err = fmt.Errorf("planner: unsupported clause %T", clause)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return op, columns, nil
}

// checkVariables verifies that every free variable of the expression is in
// scope.
func (p *Planner) checkVariables(e ast.Expr, sc *scope) error {
	if e == nil {
		return nil
	}
	for _, v := range eval.Variables(e) {
		if !sc.has(v) {
			return fmt.Errorf("planner: variable `%s` not defined", v)
		}
	}
	return nil
}

func (p *Planner) nextAnon(prefix string) string {
	p.anonCounter++
	return fmt.Sprintf("  %s#%d", prefix, p.anonCounter)
}
