package exec

// Unit tests for the vectorized batch pipeline: kernel semantics against the
// row path, scan+filter fusion, the batch pool, the row fallback, and the
// allocation budget the fused scan→filter loop promises.

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/result"
	"repro/internal/value"
)

// leafGraph builds n :Leaf nodes with i = 0..n-1.
func leafGraph(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.CreateNode([]string{"Leaf"}, map[string]value.Value{"i": value.NewInt(int64(i))})
	}
	return g
}

// ltFilter builds Filter(x.i < limit) over its input.
func ltFilter(input plan.Operator, varName string, limit int64) *plan.Filter {
	return &plan.Filter{
		Input: input,
		Predicate: &ast.BinaryOp{
			Op:  ast.OpLt,
			LHS: &ast.PropertyAccess{Subject: &ast.Variable{Name: varName}, Key: "i"},
			RHS: &ast.Literal{Value: value.NewInt(limit)},
		},
	}
}

// runPlanWith executes the plan on a fresh executor with the given options
// and returns the table.
func runPlanWith(t *testing.T, g *graph.Graph, opts Options, p *plan.Plan) *result.Table {
	t.Helper()
	tbl, err := New(g, nil, opts).Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestVectorizedMatchesRowPath runs a scan→filter→project plan at several
// batch sizes and requires byte-identical output to the row engine,
// including batch sizes that split and straddle the filter's survivors.
func TestVectorizedMatchesRowPath(t *testing.T) {
	g := leafGraph(100)
	build := func() *plan.Plan {
		p := &plan.Plan{
			Root: &plan.Project{
				Input: ltFilter(&plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"}, "x", 17),
				Items: []plan.ProjectionItem{{Name: "j", Expr: &ast.PropertyAccess{Subject: &ast.Variable{Name: "x"}, Key: "i"}}},
			},
			Columns:  []string{"j"},
			ReadOnly: true,
		}
		return p
	}
	want := runPlanWith(t, g, Options{BatchSize: -1}, build()).String()
	if !strings.Contains(want, "16") {
		t.Fatalf("row path looks wrong:\n%s", want)
	}
	for _, size := range []int{1, 3, 7, 64, 1024} {
		got := runPlanWith(t, g, Options{BatchSize: size}, build()).String()
		if got != want {
			t.Errorf("BatchSize=%d diverged:\ngot:\n%s\nwant:\n%s", size, got, want)
		}
	}
}

// TestVectorizedLimitStopsScan checks the Limit kernel truncates across
// batch boundaries and stops the scan through the sentinel without leaking
// it as a user-visible error.
func TestVectorizedLimitStopsScan(t *testing.T) {
	g := leafGraph(50)
	for _, limit := range []int64{0, 1, 5, 49, 50, 60} {
		build := func() *plan.Plan {
			return &plan.Plan{
				Root: &plan.Limit{
					Input: &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"},
					Count: &ast.Literal{Value: value.NewInt(limit)},
				},
				Columns:  []string{"x"},
				ReadOnly: true,
			}
		}
		want := runPlanWith(t, g, Options{BatchSize: -1}, build()).String()
		got := runPlanWith(t, g, Options{BatchSize: 7}, build()).String()
		if got != want {
			t.Errorf("LIMIT %d diverged:\ngot:\n%s\nwant:\n%s", limit, got, want)
		}
	}
}

// TestVectorizedExpandMatchesRowPath pushes a batch through the Expand
// kernel with a relationship variable and compares against the row engine,
// with an output batch small enough to force mid-iteration flushes.
func TestVectorizedExpandMatchesRowPath(t *testing.T) {
	g, _ := hubGraph(40)
	build := func() *plan.Plan {
		return &plan.Plan{
			Root: &plan.Project{
				Input: &plan.Expand{
					Input:     &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "a", Label: "Hub"},
					FromVar:   "a",
					RelVar:    "r",
					ToVar:     "b",
					Types:     []string{"T"},
					Direction: ast.DirOutgoing,
				},
				Items: []plan.ProjectionItem{{Name: "j", Expr: &ast.PropertyAccess{Subject: &ast.Variable{Name: "b"}, Key: "i"}}},
			},
			Columns:  []string{"j"},
			ReadOnly: true,
		}
	}
	want := runPlanWith(t, g, Options{BatchSize: -1}, build()).String()
	for _, size := range []int{3, 8, 1024} {
		got := runPlanWith(t, g, Options{BatchSize: size}, build()).String()
		if got != want {
			t.Errorf("BatchSize=%d diverged:\ngot:\n%s\nwant:\n%s", size, got, want)
		}
	}
}

// TestVectorizedErrorParity checks a predicate error surfaces with the same
// message on the batched path as on the row path (the compiled batch
// predicate mirrors the scalar evaluator, including error text).
func TestVectorizedErrorParity(t *testing.T) {
	g := leafGraph(10)
	build := func() *plan.Plan {
		return &plan.Plan{
			Root: &plan.Filter{
				Input: &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"},
				// x.i:L → label predicate on an integer, a type error on
				// every row.
				Predicate: &ast.HasLabels{
					Subject: &ast.PropertyAccess{Subject: &ast.Variable{Name: "x"}, Key: "i"},
					Labels:  []string{"L"},
				},
			},
			Columns:  []string{"x"},
			ReadOnly: true,
		}
	}
	_, rowErr := New(g, nil, Options{BatchSize: -1}).Execute(build())
	_, vecErr := New(g, nil, Options{BatchSize: 4}).Execute(build())
	if rowErr == nil || vecErr == nil {
		t.Fatalf("expected both paths to fail: row=%v vec=%v", rowErr, vecErr)
	}
	if rowErr.Error() != vecErr.Error() {
		t.Errorf("error text diverged:\nrow: %v\nvec: %v", rowErr, vecErr)
	}
}

// TestColumnarFilterCompilation pins which predicate shapes take the
// columnar fast path and that flipped constant-first comparisons compare
// the right way around.
func TestColumnarFilterCompilation(t *testing.T) {
	g := leafGraph(10)
	p := &plan.Plan{
		Root:     &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"},
		Columns:  []string{"x"},
		ReadOnly: true,
	}
	ex := New(g, nil, Options{})
	ex.tab = plan.ComputeSlots(p)

	prop := func() ast.Expr {
		return &ast.PropertyAccess{Subject: &ast.Variable{Name: "x"}, Key: "i"}
	}
	lit := func(i int64) ast.Expr { return &ast.Literal{Value: value.NewInt(i)} }

	// 3 < x.i must flip to x.i > 3.
	cf, ok := ex.compileColumnarFilter(&ast.BinaryOp{Op: ast.OpLt, LHS: lit(3), RHS: prop()})
	if !ok {
		t.Fatal("constant-first comparison should compile")
	}
	nodes := g.NodesByLabel("Leaf")
	kept := cf.filterNodesInto(nil, nodes)
	if len(kept) != 6 { // i in 4..9
		t.Errorf("3 < x.i kept %d nodes, want 6", len(kept))
	}

	// Conjunction narrows: x.i >= 2 AND 7 > x.i keeps 2..6.
	cf, ok = ex.compileColumnarFilter(&ast.BinaryOp{
		Op:  ast.OpAnd,
		LHS: &ast.BinaryOp{Op: ast.OpGe, LHS: prop(), RHS: lit(2)},
		RHS: &ast.BinaryOp{Op: ast.OpGt, LHS: lit(7), RHS: prop()},
	})
	if !ok {
		t.Fatal("conjunction should compile")
	}
	if kept = cf.filterNodesInto(nil, nodes); len(kept) != 5 {
		t.Errorf("conjunction kept %d nodes, want 5", len(kept))
	}

	// Non-columnar shapes must not compile: OR, function-ish forms,
	// variable-variable comparisons.
	if _, ok = ex.compileColumnarFilter(&ast.BinaryOp{
		Op:  ast.OpOr,
		LHS: &ast.BinaryOp{Op: ast.OpEq, LHS: prop(), RHS: lit(1)},
		RHS: &ast.BinaryOp{Op: ast.OpEq, LHS: prop(), RHS: lit(2)},
	}); ok {
		t.Error("OR must not take the columnar path (Kleene-And compaction only)")
	}
	if _, ok = ex.compileColumnarFilter(&ast.BinaryOp{Op: ast.OpEq, LHS: prop(), RHS: prop()}); ok {
		t.Error("property-property comparison must not take the columnar path")
	}
}

// TestBatchPoolReuse checks a wiped pooled batch carries no values over and
// reshapes to new slot tables without losing capacity.
func TestBatchPoolReuse(t *testing.T) {
	tab1 := result.NewSlotTable()
	tab1.Add("a")
	tab1.Add("b")
	b := getBatch(tab1, 8)
	b.Reset(3)
	b.Col(0)[0] = value.NewInt(42)
	putBatch(b)

	tab2 := result.NewSlotTable()
	tab2.Add("a")
	tab2.Add("b")
	tab2.Add("c")
	b2 := getBatch(tab2, 8)
	if b2.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", b2.Capacity())
	}
	b2.Reset(8)
	for slot := 0; slot < 3; slot++ {
		for _, row := range b2.Selection() {
			if v := b2.Col(slot)[row]; v != nil {
				t.Fatalf("pooled batch leaked value %v at slot %d row %d", v, slot, row)
			}
		}
	}
	putBatch(b2)
}

// TestVectorizedFusedScanFilterAllocBudget pins the headline win: a warm
// batched scan→filter with a fused columnar predicate drops failing rows
// before boxing their nodes into values, so per-scanned-row allocations
// amortize to ~zero (only the few surviving rows pay the value box).
func TestVectorizedFusedScanFilterAllocBudget(t *testing.T) {
	const n = 4096
	g := leafGraph(n)
	p := &plan.Plan{
		Root:     ltFilter(&plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"}, "x", 8),
		Columns:  []string{"x"},
		ReadOnly: true,
	}
	ex := New(g, nil, Options{})
	ex.tab = plan.ComputeSlots(p)
	ex.readOnly = true
	src := &vecSource{
		varName: "x",
		nodes:   g.NodesByLabel("Leaf"),
		ops:     []plan.Operator{p.Root},
	}
	rows := 0
	runOnce := func() {
		rows = 0
		if err := ex.runVectorized(src, func(result.Record) error {
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	runOnce() // warm the batch pool and scan snapshot
	if rows != 8 {
		t.Fatalf("expected 8 surviving rows, got %d", rows)
	}
	allocs := testing.AllocsPerRun(20, runOnce)
	perRow := allocs / float64(n)
	// 8 survivor value boxes + a per-query constant (kernel closures, view
	// record) over 4096 scanned rows.
	const budget = 0.05
	if perRow > budget {
		t.Errorf("fused scan→filter allocates %.4f allocs/scanned-row (%.0f total for %d rows), budget %.2f",
			perRow, allocs, n, budget)
	}
}

// TestVectorizedFallsBackOnHandBuiltShapes checks a plan the kernels reject
// (a projection item without a slot) still answers correctly through the
// row fallback.
func TestVectorizedFallsBackOnHandBuiltShapes(t *testing.T) {
	g := leafGraph(5)
	p := &plan.Plan{
		Root: &plan.Project{
			Input: &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"},
			Items: []plan.ProjectionItem{{Name: "j", Expr: &ast.PropertyAccess{Subject: &ast.Variable{Name: "x"}, Key: "i"}}},
		},
		Columns:  []string{"j"},
		ReadOnly: true,
	}
	ex := New(g, nil, Options{BatchSize: 2})
	// A slot table missing the projection name forces every kernel build to
	// bail; runVectorized must fall back to the row path, not fail.
	ex.tab = result.NewSlotTable()
	ex.tab.Add("x")
	ex.readOnly = true
	var got []string
	src := &vecSource{varName: "x", nodes: g.NodesByLabel("Leaf"), ops: []plan.Operator{p.Root}}
	if err := ex.runVectorized(src, func(r result.Record) error {
		got = append(got, r.Get("j").String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != "0" || got[4] != "4" {
		t.Fatalf("fallback rows = %v", got)
	}
}

// TestExpandLeavesDeadSlotsUnwritten checks slot liveness end to end: in
// (a)-[anon1]->(b)-[r]->(c)-[anon3]->(d) RETURN count(r), the planner drops
// the last relationship's binding and marks d unread, so the expand kernel
// boxes neither, while anon1 (read by the later expands' uniqueness sets),
// the named r and every endpoint that is expanded from stay bound on both
// paths.
func TestExpandLeavesDeadSlotsUnwritten(t *testing.T) {
	g := leafGraph(20)
	leaves := g.NodesByLabel("Leaf")
	for i, n := range leaves {
		if _, err := g.CreateRelationship(n, leaves[(i+1)%len(leaves)], "R", nil); err != nil {
			t.Fatal(err)
		}
	}
	q, err := parser.Parse("MATCH (a:Leaf)-[:R]->(b)-[r:R]->(c)-[:R]->(d) RETURN count(r) AS n")
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.New(g).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	pl := p.Pipeline
	var expands []*plan.Expand
	for _, op := range pl.Ops {
		if e, ok := op.(*plan.Expand); ok {
			expands = append(expands, e)
		}
	}
	if len(expands) != 3 || !pl.BatchedAgg() || pl.Batched != len(pl.Ops)-2 {
		t.Fatalf("unexpected plan shape:\n%s", p.String())
	}
	anon1 := expands[0].RelVar
	if anon1 == "" || expands[1].RelVar != "r" || expands[2].RelVar != "" {
		t.Fatalf("relationship bindings %q, %q, %q: want only the last dropped", anon1, expands[1].RelVar, expands[2].RelVar)
	}
	if expands[0].ToUnread || expands[1].ToUnread || !expands[2].ToUnread {
		t.Fatalf("only d should be marked unread:\n%s", p.String())
	}
	live := []string{"a", "b", "c", anon1, "r"}
	dSlot, ok := p.Slots.Slot("d")
	if !ok {
		t.Fatal("d has no slot")
	}

	ex := New(g, nil, Options{})
	ex.tab = p.Slots
	below := pl.Ops[:pl.Batched-1]
	rows := 0
	ok, err = ex.pushBatches(&vecSource{varName: "a", nodes: leaves}, below, func(b *result.Batch) error {
		for _, row := range b.Selection() {
			rows++
			for _, name := range live {
				if s, _ := p.Slots.Slot(name); b.Col(s)[row] == nil {
					t.Fatalf("kernel left live slot %q unbound", name)
				}
			}
			if b.Col(dSlot)[row] != nil {
				t.Fatal("kernel boxed the unread target d")
			}
		}
		return nil
	})
	if !ok || err != nil || rows != len(leaves) {
		t.Fatalf("kernels: ok=%v err=%v rows=%d", ok, err, rows)
	}

	top, err := buildChain(&nodeSource{varName: "a", nodes: leaves}, below)
	if err != nil {
		t.Fatal(err)
	}
	rows = 0
	if err := ex.run(top, nil, func(r result.Record) error {
		rows++
		for _, name := range live {
			if !r.Has(name) {
				t.Fatalf("row path left live slot %q unbound", name)
			}
		}
		return nil
	}); err != nil || rows != len(leaves) {
		t.Fatalf("row path: err=%v rows=%d", err, rows)
	}
}
