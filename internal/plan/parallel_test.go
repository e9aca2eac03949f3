package plan

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func analyzed(root Operator, readOnly bool) *Pipeline {
	return AnalyzePipeline(&Plan{Root: root, Columns: []string{"x"}, ReadOnly: readOnly})
}

// TestAnalyzePipelineClassification checks every operator type's role in
// both prefixes: each sits on top of Start → NodeByLabelScan → Filter, so
// the Filter alone is batched and streaming and the operator under test
// either extends a prefix or ends it with its boundary or fallback reason.
func TestAnalyzePipelineClassification(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	filter := &Filter{Input: scan, Predicate: v("ok")}
	agg := &Aggregate{Input: filter, Aggregations: []AggregationItem{{Name: "c", Func: "count"}}}

	cases := []struct {
		name      string
		op        Operator
		batched   int    // length of the batched prefix (Filter included)
		streaming int    // length of the streaming prefix (Filter included)
		boundary  string // where batching stops
		serial    string // parallel fallback reason ("" when parallel-safe)
	}{
		{"filter", &Filter{Input: filter, Predicate: v("ok2")}, 2, 2, "", ""},
		{"project", &Project{Input: filter, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}, 2, 2, "", ""},
		{"select", &SelectColumns{Input: filter, Columns: []string{"n"}}, 2, 2, "", ""},
		{"expand", &Expand{Input: filter, FromVar: "n", RelVar: "r", ToVar: "m"}, 2, 2, "", ""},
		{"varlength-expand", &Expand{Input: filter, FromVar: "n", RelVar: "r", ToVar: "m", VarLength: true},
			1, 2, "variable-length expand keeps the row path", ""},
		{"expand-into", &Expand{Input: filter, FromVar: "n", RelVar: "r", ToVar: "n", ExpandInto: true},
			1, 2, "ExpandInto keeps the row path", ""},
		{"unwind", &Unwind{Input: filter, Expr: v("l"), Alias: "x"}, 1, 2, "Unwind keeps the row path", ""},
		{"project-path", &ProjectPath{Input: filter, Var: "p"}, 1, 2, "ProjectPath keeps the row path", ""},
		{"optional", &Optional{Input: filter, Inner: &Argument{}}, 1, 2, "Optional runs its inner plan per row", ""},
		// Limit is batched but not streaming: a morsel worker's batched
		// prefix, min(batched, streaming), stops under it.
		{"limit", &Limit{Input: filter, Count: lit(3)}, 2, 1, "", "Limit(3) depends on serial early exit"},
		{"skip", &Skip{Input: filter, Count: lit(3)}, 1, 1, "Skip keeps the row path", "Skip(3) depends on serial early exit"},
		// Aggregate is the batched prefix's terminal kernel.
		{"aggregate", agg, 2, 1, "", ""},
		{"sort", &Sort{Input: filter, Keys: []SortKey{{Expr: v("n")}}}, 1, 1, "Sort materializes rows", ""},
		{"distinct", &Distinct{Input: filter, Columns: []string{"n"}}, 1, 1, "Distinct keeps the row path", ""},
		{"second-scan", &NodeByLabelScan{Input: filter, Var: "t", Label: "Team"},
			1, 1, "NodeByLabelScan(t:Team) keeps the row path", ""},
		{"second-seek", &NodeIndexSeek{Input: filter, Var: "t", Label: "Team", Property: "k", Value: lit(1)},
			1, 1, "NodeIndexSeek(t:Team {k = 1}) keeps the row path", ""},
		// Hand-built: an updating operator in a plan marked read-only.
		{"not-parallel-safe", &CreateOp{Input: filter}, 1, 1, "Create() keeps the row path", "Create() is not parallel-safe"},
	}
	for _, c := range cases {
		pl := analyzed(c.op, true)
		if pl.Scan != scan {
			t.Errorf("%s: scan leaf not identified", c.name)
			continue
		}
		if len(pl.Ops) != 2 || pl.Ops[0] != filter || pl.Ops[1] != c.op {
			t.Errorf("%s: Ops should be [filter, op], got %d operators", c.name, len(pl.Ops))
		}
		if pl.Batched != c.batched || pl.Boundary != c.boundary {
			t.Errorf("%s: batched %d (%q), want %d (%q)", c.name, pl.Batched, pl.Boundary, c.batched, c.boundary)
		}
		if pl.Serial != c.serial {
			t.Errorf("%s: serial reason %q, want %q", c.name, pl.Serial, c.serial)
		}
		if pl.Streaming != c.streaming {
			t.Errorf("%s: streaming %d, want %d", c.name, pl.Streaming, c.streaming)
		}
		if wantAgg := c.op == agg; (pl.Agg != nil) != wantAgg {
			t.Errorf("%s: partial aggregation = %v, want %v", c.name, pl.Agg != nil, wantAgg)
		}
	}
}

func TestAnalyzeParallelismStreaming(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	filter := &Filter{Input: scan, Predicate: v("ok")}
	expand := &Expand{Input: filter, FromVar: "n", RelVar: "r", ToVar: "m", Direction: ast.DirOutgoing}
	project := &Project{Input: expand, Items: []ProjectionItem{{Name: "x", Expr: v("m")}}}
	sel := &SelectColumns{Input: project, Columns: []string{"x"}}

	pl := analyzed(sel, true)
	if !pl.Parallel() {
		t.Fatalf("streaming pipeline should be parallel-safe, got: %s", pl.Serial)
	}
	if pl.Scan != scan {
		t.Errorf("scan not identified")
	}
	if pl.Streaming != 4 || pl.Agg != nil || len(pl.Rest()) != 0 {
		t.Errorf("decomposition wrong: %d streaming, agg=%v, %d rest",
			pl.Streaming, pl.Agg, len(pl.Rest()))
	}
	if pl.Batched != 4 || pl.Boundary != "" {
		t.Errorf("whole chain should be batched, got %d (%q)", pl.Batched, pl.Boundary)
	}
}

func TestAnalyzeParallelismAggregateAndSort(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	scan := &AllNodesScan{Input: &Start{}, Var: "n"}
	agg := &Aggregate{Input: scan, Grouping: []ProjectionItem{{Name: "g", Expr: v("g")}},
		Aggregations: []AggregationItem{{Name: "c", Func: "count"}}}
	project := &Project{Input: agg, Items: []ProjectionItem{{Name: "x", Expr: v("c")}}}
	sortOp := &Sort{Input: project, Keys: []SortKey{{Expr: v("x")}}}
	limit := &Limit{Input: sortOp, Count: lit(1)}
	sel := &SelectColumns{Input: limit, Columns: []string{"x"}}

	pl := analyzed(sel, true)
	if !pl.Parallel() {
		t.Fatalf("aggregate+sort+limit plan should be parallel-safe, got: %s", pl.Serial)
	}
	if pl.Agg != agg {
		t.Errorf("aggregate not captured for partial aggregation")
	}
	if len(pl.Rest()) != 4 { // Project, Sort, Limit, SelectColumns
		t.Errorf("rest should hold the 4 serial tail operators, got %d", len(pl.Rest()))
	}
}

func TestAnalyzeParallelismAggregateBehindSecondScanInRest(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "p", Label: "Person"}
	filter := &Filter{Input: scan, Predicate: v("ok")}
	// A second scan ends the streaming segment, so the aggregate lands in
	// Rest instead of being captured for partial aggregation; it is fed the
	// stream merged in morsel order.
	scan2 := &NodeByLabelScan{Input: filter, Var: "t", Label: "Team"}
	agg := &Aggregate{Input: scan2, Grouping: []ProjectionItem{{Name: "g", Expr: v("t")}},
		Aggregations: []AggregationItem{{Name: "names", Func: "collect", Arg: v("p")}}}

	pl := analyzed(agg, true)
	if !pl.Parallel() {
		t.Fatalf("plan should stay parallel-safe, got: %s", pl.Serial)
	}
	if pl.Agg != nil {
		t.Errorf("aggregate behind a second scan must not use partial aggregation")
	}
	if rest := pl.Rest(); len(rest) != 2 || rest[0] != scan2 || rest[1] != agg {
		t.Errorf("rest should be [second scan, aggregate], got %d operators", len(rest))
	}
}

func TestAnalyzeParallelismFallbacks(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	project := &Project{Input: scan, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}

	cases := []struct {
		name     string
		root     Operator
		ro       bool
		serial   string
		boundary string
	}{
		{"updating", &CreateOp{Input: &Start{}}, false, "updating query", "updating query"},
		{"union", &Union{Left: project, Right: project, Columns: []string{"x"}}, true,
			"UNION combines two plans", "UNION combines two plans"},
		{"limit-early-exit", &Limit{Input: project, Count: lit(3)}, true, "Limit(3) depends on serial early exit", ""},
		{"skip-early-exit", &Skip{Input: project, Count: lit(3)}, true, "Skip(3) depends on serial early exit", "Skip keeps the row path"},
		{"argument-leaf", &Project{Input: &Argument{}, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}, true,
			"leaf is not Start", "leaf is not Start"},
		{"no-scan", &Start{}, true, "no scan to partition", "no scan to batch"},
		{"non-scan-leaf", &Project{Input: &Start{}, Items: []ProjectionItem{{Name: "x", Expr: lit(1)}}}, true,
			"Project(1 AS x) is not a partitionable scan", "Project(1 AS x) is not a batchable scan"},
		{"bare-scan", scan, true, "no per-row work above the scan", "no per-row work above the scan"},
	}
	for _, c := range cases {
		pl := analyzed(c.root, c.ro)
		if pl.Parallel() {
			t.Errorf("%s: should not be parallel-safe", c.name)
			continue
		}
		if pl.Serial != c.serial {
			t.Errorf("%s: serial reason %q, want %q", c.name, pl.Serial, c.serial)
		}
		if pl.Boundary != c.boundary {
			t.Errorf("%s: boundary %q, want %q", c.name, pl.Boundary, c.boundary)
		}
	}
}

func TestAnalyzeParallelismSeekLeaves(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }
	items := []ProjectionItem{{Name: "x", Expr: v("n")}}
	leaves := []Operator{
		&NodeIndexSeek{Input: &Start{}, Var: "n", Label: "P", Property: "k", Value: lit(1)},
		&NodeIndexRangeSeek{Input: &Start{}, Var: "n", Label: "P", Property: "k", Lo: lit(1)},
		&NodeIndexPrefixSeek{Input: &Start{}, Var: "n", Label: "P", Property: "k", Prefix: lit(1)},
	}
	for _, leaf := range leaves {
		pl := analyzed(&Project{Input: leaf, Items: items}, true)
		if !pl.Parallel() {
			t.Errorf("%s leaf should be a partitionable scan: %s", leaf.Describe(), pl.Serial)
		} else if pl.Scan != leaf {
			t.Errorf("%s: partitionable leaf should be the seek itself", leaf.Describe())
		}
		if pl.Batched != 1 {
			t.Errorf("%s leaf should be batched, got %q", leaf.Describe(), pl.Boundary)
		}
	}
}

func TestPlanStringReportsParallel(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	project := &Project{Input: scan, Items: []ProjectionItem{{Name: "x", Expr: v("n")}}}
	p := &Plan{Root: project, Columns: []string{"x"}, ReadOnly: true}
	if strings.Contains(p.String(), "parallel:") {
		t.Errorf("un-analysed plan should not print a parallel line:\n%s", p.String())
	}
	p.Pipeline = AnalyzePipeline(p)
	want := "parallel: eligible (morsel-driven NodeByLabelScan(n:Person))\n" +
		"vectorized: eligible (batched NodeByLabelScan(n:Person) -> project)\n"
	if !strings.HasSuffix(p.String(), want) {
		t.Errorf("analysed plan should print its eligibility:\n%s", p.String())
	}
}

// TestAggregateEndsBatchedPrefix checks that nothing above an Aggregate is
// batched, and that EXPLAIN names the kernel.
func TestAggregateEndsBatchedPrefix(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "n", Label: "Person"}
	expand := &Expand{Input: scan, FromVar: "n", RelVar: "  rel#1", ToVar: "m", Direction: ast.DirOutgoing}
	agg := &Aggregate{Input: expand, Aggregations: []AggregationItem{{Name: "c", Func: "count", Arg: v("m")}}}
	project := &Project{Input: agg, Items: []ProjectionItem{{Name: "x", Expr: v("c")}}}
	sel := &SelectColumns{Input: project, Columns: []string{"x"}}
	p := &Plan{Root: sel, Columns: []string{"x"}, ReadOnly: true}
	p.Pipeline = AnalyzePipeline(p)
	pl := p.Pipeline
	if pl.Batched != 2 || !pl.BatchedAgg() || pl.Boundary != "Aggregate ends the batched prefix" {
		t.Fatalf("batched %d (%q), want the prefix to end at the aggregate", pl.Batched, pl.Boundary)
	}
	if pl.Agg != agg || pl.Streaming != 1 {
		t.Errorf("partial aggregation not captured: streaming %d, agg %v", pl.Streaming, pl.Agg)
	}
	want := "vectorized: eligible (batched NodeByLabelScan(n:Person) -> expand -> aggregate; Aggregate ends the batched prefix)\n"
	if !strings.HasSuffix(p.String(), want) {
		t.Errorf("EXPLAIN should name the aggregate kernel:\n%s", p.String())
	}
}

// TestLivenessReads pins what counts as a read: expressions, uniqueness
// sets, path construction, ORDER BY keys as column names, the plan's output,
// and everything below an Optional.
func TestLivenessReads(t *testing.T) {
	v := func(n string) ast.Expr { return &ast.Variable{Name: n} }
	prop := func(n, k string) ast.Expr { return &ast.PropertyAccess{Subject: v(n), Key: k} }
	scan := &NodeByLabelScan{Input: &Start{}, Var: "a", Label: "P"}
	e1 := &Expand{Input: scan, FromVar: "a", RelVar: "r1", ToVar: "b"}
	e2 := &Expand{Input: e1, FromVar: "b", RelVar: "r2", ToVar: "c", UniqueRels: []string{"r1"}}
	e3 := &Expand{Input: e2, FromVar: "c", RelVar: "r3", ToVar: "d"}
	pp := &ProjectPath{Input: e3, Var: "p", Part: ast.PatternPart{
		Nodes: []ast.NodePattern{{Variable: "c"}, {Variable: "d"}},
		Rels:  []ast.RelationshipPattern{{Variable: "r3"}}}}
	e4 := &Expand{Input: pp, FromVar: "d", RelVar: "r4", ToVar: "e"}
	sortOp := &Sort{Input: e4, Keys: []SortKey{{Expr: prop("e", "k")}}}
	agg := &Aggregate{Input: sortOp, Aggregations: []AggregationItem{{Name: "n", Func: "count", Arg: prop("p", "x")}}}
	p := &Plan{Root: agg, Columns: []string{"n"}, ReadOnly: true}
	pl := AnalyzePipeline(p)
	cases := []struct {
		op   Operator
		name string
		read bool
	}{
		{e1, "r1", true},  // e2's uniqueness set
		{e2, "r2", false}, // anonymous and unread
		{e2, "c", true},   // e3's source
		{e3, "r3", true},  // the named path
		{e4, "r4", false}, // nothing above reads it
		{e4, "e", true},   // the sort key's expression
		{e4, "e.k", true}, // the sort key as a column name
		{sortOp, "p", true},
		{agg, "n", true}, // the plan's output
		{agg, "p", false},
		{&Filter{}, "x", true}, // not in Ops
	}
	for _, c := range cases {
		if got := pl.readAbove(c.op, c.name); got != c.read {
			t.Errorf("readAbove(%s, %q) = %v, want %v", c.op.Describe(), c.name, got, c.read)
		}
	}

	opt := &Optional{Input: e2, Inner: &Argument{}}
	pl = AnalyzePipeline(&Plan{Root: opt, Columns: []string{"a"}, ReadOnly: true})
	if !pl.readAbove(e2, "r2") || !pl.readAbove(e1, "anything") {
		t.Errorf("an Optional above must make every name live")
	}
}
