package plan

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func TestDescribeAndSource(t *testing.T) {
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }

	start := &Start{}
	scan := &NodeByLabelScan{Input: start, Var: "n", Label: "Person"}
	seek := &NodeIndexSeek{Input: start, Var: "n", Label: "Person", Property: "name", Value: lit(1)}
	all := &AllNodesScan{Input: start, Var: "n"}
	expand := &Expand{Input: scan, FromVar: "n", RelVar: "r", ToVar: "m", Types: []string{"KNOWS"}, Direction: ast.DirOutgoing}
	varExpand := &Expand{Input: scan, FromVar: "n", RelVar: "r", ToVar: "m", Direction: ast.DirIncoming, VarLength: true, ExpandInto: true}
	filter := &Filter{Input: expand, Predicate: v("ok")}
	optional := &Optional{Input: scan, Inner: &Argument{}, IntroducedVars: []string{"m"}}
	pp := &ProjectPath{Input: expand, Var: "p", Part: ast.PatternPart{Nodes: []ast.NodePattern{{Variable: "n"}}}}
	unwind := &Unwind{Input: start, Expr: v("xs"), Alias: "x"}
	project := &Project{Input: filter, Items: []ProjectionItem{{Name: "name", Expr: v("n")}}}
	agg := &Aggregate{Input: project, Grouping: []ProjectionItem{{Name: "g", Expr: v("g")}}, Aggregations: []AggregationItem{{Name: "c", Func: "count"}, {Name: "s", Func: "sum", Arg: v("x")}}}
	aggDistinct := &Aggregate{Input: project, Aggregations: []AggregationItem{{Name: "d", Func: "count", Distinct: true, Arg: v("x")}}}
	distinct := &Distinct{Input: agg, Columns: []string{"g"}}
	sortOp := &Sort{Input: distinct, Keys: []SortKey{{Expr: v("g"), Descending: true}}}
	skip := &Skip{Input: sortOp, Count: lit(1)}
	limit := &Limit{Input: skip, Count: lit(2)}
	sel := &SelectColumns{Input: limit, Columns: []string{"g", "c"}}
	union := &Union{Left: sel, Right: sel, All: true, Columns: []string{"g"}}
	unionD := &Union{Left: sel, Right: sel, Columns: []string{"g"}}
	create := &CreateOp{Input: start, Pattern: ast.Pattern{Parts: []ast.PatternPart{{Nodes: []ast.NodePattern{{Variable: "n"}}}}}}
	merge := &MergeOp{Input: start, Part: ast.PatternPart{Nodes: []ast.NodePattern{{Variable: "n"}}}}
	del := &DeleteOp{Input: start, Detach: true, Exprs: []ast.Expr{v("n")}}
	set := &SetOp{Input: start}
	remove := &RemoveOp{Input: start}
	arg := &Argument{}

	cases := []struct {
		op       Operator
		contains string
		source   Operator
	}{
		{start, "Start", nil},
		{arg, "Argument", nil},
		{all, "AllNodesScan(n)", start},
		{scan, "NodeByLabelScan(n:Person)", start},
		{seek, "NodeIndexSeek(n:Person {name = 1})", start},
		{expand, "Expand((n)-->[r:KNOWS](m))", scan},
		{varExpand, "VarLengthExpandInto((n)<--[r](m))", scan},
		{filter, "Filter(ok)", expand},
		{optional, "Optional", scan},
		{pp, "ProjectPath(p = (n))", expand},
		{unwind, "Unwind(xs AS x)", start},
		{project, "Project(n AS name)", filter},
		{agg, "Aggregate(g, c: count(*), s: sum(x))", project},
		{aggDistinct, "Aggregate(d: count(DISTINCT x))", project},
		{distinct, "Distinct(g)", agg},
		{sortOp, "Sort(g DESC)", distinct},
		{skip, "Skip(1)", sortOp},
		{limit, "Limit(2)", skip},
		{sel, "SelectColumns(g, c)", limit},
		{union, "UnionAll", sel},
		{unionD, "Union", sel},
		{create, "Create((n))", start},
		{merge, "Merge((n))", start},
		{del, "DetachDelete(n)", start},
		{set, "Set", start},
		{remove, "Remove", start},
	}
	for _, c := range cases {
		if got := c.op.Describe(); !strings.Contains(got, c.contains) {
			t.Errorf("Describe() = %q, want it to contain %q", got, c.contains)
		}
		if got := c.op.Source(); got != c.source {
			t.Errorf("%T.Source() = %v, want %v", c.op, got, c.source)
		}
	}
	if (&DeleteOp{Input: start, Exprs: []ast.Expr{v("n")}}).Describe() != "Delete(n)" {
		t.Errorf("non-detach delete describe wrong")
	}
	if (&Expand{Input: scan, FromVar: "a", ToVar: "b", Direction: ast.DirBoth}).Describe() != "Expand((a)--[](b))" {
		t.Errorf("undirected expand describe wrong")
	}
}

func TestPlanString(t *testing.T) {
	start := &Start{}
	scan := &NodeByLabelScan{Input: start, Var: "n", Label: "Person"}
	sel := &SelectColumns{Input: scan, Columns: []string{"n"}}
	p := &Plan{Root: sel, Columns: []string{"n"}, ReadOnly: true}
	s := p.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Fatalf("plan rendering should have 3 lines:\n%s", s)
	}
	if !strings.Contains(lines[0], "SelectColumns") || !strings.Contains(lines[1], "NodeByLabelScan") || !strings.Contains(lines[2], "Start") {
		t.Errorf("plan rendering order wrong:\n%s", s)
	}
	if !strings.HasPrefix(lines[1], "  + ") {
		t.Errorf("plan rendering should indent children:\n%s", s)
	}
}
