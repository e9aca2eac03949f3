// Package plan defines the logical/physical operator algebra that Cypher
// queries are compiled into. The operator set mirrors the one the paper
// sketches for Neo4j's runtime (Section 2 "Neo4j implementation"): the usual
// relational operators plus Expand, which follows the graph's direct
// node-to-relationship references, and its variable-length variant.
//
// A plan is a tree of operators; every non-leaf operator consumes the rows of
// its Input. Query execution starts from the Start operator, which produces
// the unit table containing a single empty record (T() in the paper).
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/result"
)

// Operator is a node in a query plan.
type Operator interface {
	// Describe returns a one-line description used by EXPLAIN.
	Describe() string
	// Source returns the input operator, or nil for leaves.
	Source() Operator
}

// Plan is a complete compiled query: the operator tree plus the output
// column names in order.
type Plan struct {
	Root    Operator
	Columns []string
	// ReadOnly reports whether executing the plan cannot modify the graph.
	ReadOnly bool
	// Pipeline is the batched/morsel-parallel analysis of the plan (set by
	// the planner; nil for hand-built plans, which the executor analyses
	// lazily).
	Pipeline *Pipeline
	// Slots maps every name the plan can bind to a fixed row slot (set by the
	// planner via ComputeSlots; nil for hand-built plans, which the executor
	// computes lazily). The executor's rows are slices indexed by these slots.
	Slots *result.SlotTable
	// Est carries the planner's cardinality/cost estimates per operator
	// (surfaced by EXPLAIN; nil for hand-built plans). The map is frozen
	// after planning: plans are shared via the plan cache.
	Est map[Operator]Estimate
}

// Estimate is the planner's prediction for one operator: the number of rows
// it emits and the cumulative cost (rows touched) of the subtree rooted at
// it. See the "Cost model & statistics" section of docs/ARCHITECTURE.md for
// the estimation formulas.
type Estimate struct {
	Rows float64
	Cost float64
}

// fmtEst renders an estimate figure compactly and deterministically for
// EXPLAIN output (golden-tested): one decimal below 10, integers above.
func fmtEst(v float64) string {
	if v < 10 {
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// String renders the plan operator tree, one operator per line, leaf last,
// followed by the plan's parallel eligibility when it has been analysed.
func (p *Plan) String() string {
	var lines []string
	for op := p.Root; op != nil; op = op.Source() {
		line := op.Describe()
		if e, ok := p.Est[op]; ok {
			line += " [rows~" + fmtEst(e.Rows) + " cost~" + fmtEst(e.Cost) + "]"
		}
		lines = append(lines, line)
	}
	var sb strings.Builder
	for i, l := range lines {
		sb.WriteString(strings.Repeat("  ", i))
		sb.WriteString("+ ")
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	if pl := p.Pipeline; pl != nil {
		if pl.Parallel() {
			agg := ""
			if pl.Agg != nil {
				agg = ", partial aggregation"
			}
			fmt.Fprintf(&sb, "parallel: eligible (morsel-driven %s%s)\n", pl.Scan.Describe(), agg)
		} else {
			fmt.Fprintf(&sb, "parallel: serial (%s)\n", pl.Serial)
		}
		if pl.Batched > 0 {
			boundary := ""
			if pl.Boundary != "" {
				boundary = "; " + pl.Boundary
			}
			fmt.Fprintf(&sb, "vectorized: eligible (%s%s)\n", pl.describeBatched(), boundary)
		} else {
			fmt.Fprintf(&sb, "vectorized: row-at-a-time (%s)\n", pl.Boundary)
		}
	}
	return sb.String()
}

// ProjectionItem is one named projection expression.
type ProjectionItem struct {
	Name string
	Expr ast.Expr
}

// AggregationItem is one aggregating expression in an Aggregate operator.
type AggregationItem struct {
	Name     string
	Func     string // "count", "collect", "sum", "avg", "min", "max"
	Distinct bool
	Arg      ast.Expr // nil for count(*)
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr       ast.Expr
	Descending bool
}

// --- Leaves ---

// Start produces the unit table: a single empty record.
type Start struct{}

// Argument produces the current outer row inside an Optional (or other
// apply-style) operator.
type Argument struct{}

// --- Scans and expansion ---

// AllNodesScan binds Var to every node of the graph, once per input row.
type AllNodesScan struct {
	Input Operator
	Var   string
}

// NodeByLabelScan binds Var to every node carrying Label, using the label
// index.
type NodeByLabelScan struct {
	Input Operator
	Var   string
	Label string
}

// NodeIndexSeek binds Var to the nodes with Label whose Property equals the
// value of Value, using a property index when available. With In set, Value
// must evaluate to a list and the seek unions the buckets of its distinct
// non-null elements (an IN-list seek).
type NodeIndexSeek struct {
	Input    Operator
	Var      string
	Label    string
	Property string
	Value    ast.Expr
	In       bool
}

// NodeIndexRangeSeek binds Var to the nodes with Label whose Property lies in
// the range (Lo, Hi) — either bound may be nil for a half-open range — using
// the ordered form of the property index. Inclusivity per bound follows
// LoInc/HiInc (`>=`/`<=` versus `>`/`<`).
type NodeIndexRangeSeek struct {
	Input        Operator
	Var          string
	Label        string
	Property     string
	Lo, Hi       ast.Expr // nil = unbounded on that side
	LoInc, HiInc bool
}

// NodeIndexPrefixSeek binds Var to the nodes with Label whose string-valued
// Property starts with the value of Prefix (STARTS WITH), using the ordered
// form of the property index.
type NodeIndexPrefixSeek struct {
	Input    Operator
	Var      string
	Label    string
	Property string
	Prefix   ast.Expr
}

// Expand traverses relationships from the node bound to FromVar, binding
// RelVar to the relationship and ToVar to the other endpoint. It implements
// both the single-hop Expand of the paper and, when VarLength is set, the
// variable-length expansion used by patterns such as [:CITES*] (RelVar is
// then bound to the list of traversed relationships).
type Expand struct {
	Input     Operator
	FromVar   string
	RelVar    string
	ToVar     string
	Types     []string
	Direction ast.Direction
	// Variable-length expansion ("transitive closure" patterns).
	VarLength bool
	MinHops   int // -1 when unspecified (defaults to 1)
	MaxHops   int // -1 when unspecified (defaults to unbounded)
	// ExpandInto is set when ToVar is already bound: the expansion checks the
	// endpoint instead of binding it.
	ExpandInto bool
	// RelProperties carries inline property predicates on the relationship
	// pattern, e.g. -[:KNOWS {since: 1985}]-.
	RelProperties *ast.MapLiteral
	// UniqueRels lists relationship variables bound earlier in the same MATCH
	// clause; under Cypher's relationship-isomorphism semantics the newly
	// traversed relationships must be distinct from all of them.
	UniqueRels []string
	// UniqueNodes lists node variables bound earlier in the same MATCH
	// clause; used only under node-isomorphism matching semantics.
	UniqueNodes []string
	// ToUnread is set by Pipeline.DropDeadBindings when no operator above
	// reads ToVar; the batched kernel then leaves the target's slot unbound.
	ToUnread bool
}

// Filter keeps only rows for which Predicate evaluates to true.
type Filter struct {
	Input     Operator
	Predicate ast.Expr
}

// Optional implements OPTIONAL MATCH: for every input row the Inner plan
// (rooted at an Argument) is evaluated; if it produces no rows, one row is
// emitted with the IntroducedVars bound to null.
type Optional struct {
	Input          Operator
	Inner          Operator
	IntroducedVars []string
}

// ProjectPath binds Var to the path value matched by the pattern part (named
// paths: p = (a)-[:X*]->(b)).
type ProjectPath struct {
	Input Operator
	Var   string
	Part  ast.PatternPart
}

// --- Row operators ---

// Unwind expands a list-valued expression into one row per element.
type Unwind struct {
	Input Operator
	Expr  ast.Expr
	Alias string
}

// Project adds the named projection expressions to each row, keeping existing
// columns (pruning is done separately by SelectColumns so that ORDER BY can
// still see pre-projection variables).
type Project struct {
	Input Operator
	Items []ProjectionItem
}

// Aggregate groups rows by the grouping expressions and computes the
// aggregations per group. Its output rows contain only the grouping and
// aggregation columns.
type Aggregate struct {
	Input        Operator
	Grouping     []ProjectionItem
	Aggregations []AggregationItem
}

// Distinct removes duplicate rows, considering only Columns.
type Distinct struct {
	Input   Operator
	Columns []string
}

// Sort orders rows by the sort keys.
type Sort struct {
	Input Operator
	Keys  []SortKey
}

// Skip discards the first Count rows.
type Skip struct {
	Input Operator
	Count ast.Expr
}

// Limit keeps at most Count rows.
type Limit struct {
	Input Operator
	Count ast.Expr
}

// SelectColumns restricts each row to the named columns (the scope cut
// performed by WITH, and the final projection of RETURN).
type SelectColumns struct {
	Input   Operator
	Columns []string
}

// Union combines the results of two plans; when All is false, duplicate rows
// are removed (set union).
type Union struct {
	Left    Operator
	Right   Operator
	All     bool
	Columns []string
}

// --- Updating operators ---

// CreateOp creates the nodes and relationships of the pattern for every input
// row, binding the new entities to their pattern variables.
type CreateOp struct {
	Input   Operator
	Pattern ast.Pattern
}

// MergeOp matches the pattern part and, if no match exists for the row,
// creates it (running the respective ON MATCH / ON CREATE SET items).
type MergeOp struct {
	Input    Operator
	Part     ast.PatternPart
	OnCreate []ast.SetItem
	OnMatch  []ast.SetItem
}

// DeleteOp deletes the entities denoted by Exprs.
type DeleteOp struct {
	Input  Operator
	Detach bool
	Exprs  []ast.Expr
}

// SetOp applies SET items (property and label updates).
type SetOp struct {
	Input Operator
	Items []ast.SetItem
}

// RemoveOp applies REMOVE items.
type RemoveOp struct {
	Input Operator
	Items []ast.RemoveItem
}

// --- Operator interface implementations ---

// Describe implementations.

func (*Start) Describe() string    { return "Start" }
func (*Argument) Describe() string { return "Argument" }
func (o *AllNodesScan) Describe() string {
	return fmt.Sprintf("AllNodesScan(%s)", o.Var)
}
func (o *NodeByLabelScan) Describe() string {
	return fmt.Sprintf("NodeByLabelScan(%s:%s)", o.Var, o.Label)
}
func (o *NodeIndexSeek) Describe() string {
	op := "="
	if o.In {
		op = "IN"
	}
	return fmt.Sprintf("NodeIndexSeek(%s:%s {%s %s %s})", o.Var, o.Label, o.Property, op, o.Value.String())
}
func (o *NodeIndexRangeSeek) Describe() string {
	var bounds []string
	if o.Lo != nil {
		op := ">"
		if o.LoInc {
			op = ">="
		}
		bounds = append(bounds, fmt.Sprintf("%s %s %s", o.Property, op, o.Lo.String()))
	}
	if o.Hi != nil {
		op := "<"
		if o.HiInc {
			op = "<="
		}
		bounds = append(bounds, fmt.Sprintf("%s %s %s", o.Property, op, o.Hi.String()))
	}
	return fmt.Sprintf("NodeIndexRangeSeek(%s:%s {%s})", o.Var, o.Label, strings.Join(bounds, ", "))
}
func (o *NodeIndexPrefixSeek) Describe() string {
	return fmt.Sprintf("NodeIndexPrefixSeek(%s:%s {%s STARTS WITH %s})", o.Var, o.Label, o.Property, o.Prefix.String())
}
func (o *Expand) Describe() string {
	kind := "Expand"
	if o.VarLength {
		kind = "VarLengthExpand"
	}
	if o.ExpandInto {
		kind += "Into"
	}
	types := ""
	if len(o.Types) > 0 {
		types = ":" + strings.Join(o.Types, "|")
	}
	arrow := "-->"
	if o.Direction == ast.DirIncoming {
		arrow = "<--"
	} else if o.Direction == ast.DirBoth {
		arrow = "--"
	}
	return fmt.Sprintf("%s((%s)%s[%s%s](%s))", kind, o.FromVar, arrow, o.RelVar, types, o.ToVar)
}
func (o *Filter) Describe() string   { return "Filter(" + o.Predicate.String() + ")" }
func (o *Optional) Describe() string { return "Optional" }
func (o *ProjectPath) Describe() string {
	return fmt.Sprintf("ProjectPath(%s = %s)", o.Var, o.Part.String())
}
func (o *Unwind) Describe() string { return fmt.Sprintf("Unwind(%s AS %s)", o.Expr.String(), o.Alias) }
func (o *Project) Describe() string {
	parts := make([]string, len(o.Items))
	for i, it := range o.Items {
		parts[i] = it.Expr.String() + " AS " + it.Name
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}
func (o *Aggregate) Describe() string {
	var parts []string
	for _, g := range o.Grouping {
		parts = append(parts, g.Name)
	}
	for _, a := range o.Aggregations {
		if a.Arg == nil {
			parts = append(parts, a.Name+": count(*)")
		} else {
			distinct := ""
			if a.Distinct {
				distinct = "DISTINCT "
			}
			parts = append(parts, fmt.Sprintf("%s: %s(%s%s)", a.Name, a.Func, distinct, a.Arg.String()))
		}
	}
	return "Aggregate(" + strings.Join(parts, ", ") + ")"
}
func (o *Distinct) Describe() string { return "Distinct(" + strings.Join(o.Columns, ", ") + ")" }
func (o *Sort) Describe() string {
	parts := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		parts[i] = k.Expr.String()
		if k.Descending {
			parts[i] += " DESC"
		}
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}
func (o *Skip) Describe() string  { return "Skip(" + o.Count.String() + ")" }
func (o *Limit) Describe() string { return "Limit(" + o.Count.String() + ")" }
func (o *SelectColumns) Describe() string {
	return "SelectColumns(" + strings.Join(o.Columns, ", ") + ")"
}
func (o *Union) Describe() string {
	if o.All {
		return "UnionAll"
	}
	return "Union"
}
func (o *CreateOp) Describe() string { return "Create(" + o.Pattern.String() + ")" }
func (o *MergeOp) Describe() string  { return "Merge(" + o.Part.String() + ")" }
func (o *DeleteOp) Describe() string {
	parts := make([]string, len(o.Exprs))
	for i, e := range o.Exprs {
		parts[i] = e.String()
	}
	kind := "Delete"
	if o.Detach {
		kind = "DetachDelete"
	}
	return kind + "(" + strings.Join(parts, ", ") + ")"
}
func (o *SetOp) Describe() string    { return "Set" }
func (o *RemoveOp) Describe() string { return "Remove" }

// Source implementations.

func (*Start) Source() Operator                 { return nil }
func (*Argument) Source() Operator              { return nil }
func (o *AllNodesScan) Source() Operator        { return o.Input }
func (o *NodeByLabelScan) Source() Operator     { return o.Input }
func (o *NodeIndexSeek) Source() Operator       { return o.Input }
func (o *NodeIndexRangeSeek) Source() Operator  { return o.Input }
func (o *NodeIndexPrefixSeek) Source() Operator { return o.Input }
func (o *Expand) Source() Operator              { return o.Input }
func (o *Filter) Source() Operator              { return o.Input }
func (o *Optional) Source() Operator            { return o.Input }
func (o *ProjectPath) Source() Operator         { return o.Input }
func (o *Unwind) Source() Operator              { return o.Input }
func (o *Project) Source() Operator             { return o.Input }
func (o *Aggregate) Source() Operator           { return o.Input }
func (o *Distinct) Source() Operator            { return o.Input }
func (o *Sort) Source() Operator                { return o.Input }
func (o *Skip) Source() Operator                { return o.Input }
func (o *Limit) Source() Operator               { return o.Input }
func (o *SelectColumns) Source() Operator       { return o.Input }
func (o *Union) Source() Operator               { return o.Left }
func (o *CreateOp) Source() Operator            { return o.Input }
func (o *MergeOp) Source() Operator             { return o.Input }
func (o *DeleteOp) Source() Operator            { return o.Input }
func (o *SetOp) Source() Operator               { return o.Input }
func (o *RemoveOp) Source() Operator            { return o.Input }
