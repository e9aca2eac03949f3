package exec

// Allocation regression tests for the slotted row runtime. The borrowed-row
// pipeline promises that the steady-state scan and single-hop expand paths
// allocate nothing per row beyond the entity values themselves (one
// NodeValue and one RelationshipValue box per emitted row); these tests pin
// that budget with testing.AllocsPerRun so a future change that reintroduces
// a per-row map or clone fails loudly.

import (
	"fmt"
	"runtime"
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

// hubGraph builds one :Hub node with fanout outgoing :T relationships to
// :Leaf nodes.
func hubGraph(fanout int) (*graph.Graph, *graph.Node) {
	g := graph.New()
	hub := g.CreateNode([]string{"Hub"}, nil)
	for i := 0; i < fanout; i++ {
		leaf := g.CreateNode([]string{"Leaf"}, map[string]value.Value{"i": value.NewInt(int64(i))})
		if _, err := g.CreateRelationship(hub, leaf, "T", nil); err != nil {
			panic(err)
		}
	}
	return g, hub
}

// TestExpandAllocBudget asserts the single-hop expand hot path stays within
// two allocations per emitted row (the relationship and node value boxes),
// plus a small per-query constant.
func TestExpandAllocBudget(t *testing.T) {
	const fanout = 512
	g, _ := hubGraph(fanout)
	p := &plan.Plan{
		Root: &plan.Expand{
			Input:     &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "a", Label: "Hub"},
			FromVar:   "a",
			RelVar:    "r",
			ToVar:     "b",
			Types:     []string{"T"},
			Direction: ast.DirOutgoing,
		},
		Columns:  []string{"b"},
		ReadOnly: true,
	}
	ex := New(g, nil, Options{})
	ex.tab = plan.ComputeSlots(p)
	ex.readOnly = true

	rows := 0
	runOnce := func() {
		rows = 0
		if err := ex.run(p.Root, nil, func(result.Record) error {
			rows++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	runOnce() // warm the scan snapshot
	if rows != fanout {
		t.Fatalf("expected %d rows, got %d", fanout, rows)
	}
	allocs := testing.AllocsPerRun(20, runOnce)
	perRow := allocs / float64(fanout)
	const budget = 2.1 // 2 value boxes per row + the per-query constant
	if perRow > budget {
		t.Errorf("single-hop expand allocates %.2f allocs/row (%.0f total for %d rows), budget %.1f",
			perRow, allocs, fanout, budget)
	}
}

// TestLabelScanEmitAllocBudget asserts a label scan emits rows with exactly
// one allocation per row (the node value box): the scan snapshot and the
// reused row buffer contribute nothing.
func TestLabelScanEmitAllocBudget(t *testing.T) {
	const n = 512
	g, _ := hubGraph(n)
	p := &plan.Plan{
		Root:     &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "x", Label: "Leaf"},
		Columns:  []string{"x"},
		ReadOnly: true,
	}
	ex := New(g, nil, Options{})
	ex.tab = plan.ComputeSlots(p)
	ex.readOnly = true
	runOnce := func() {
		if err := ex.run(p.Root, nil, func(result.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	runOnce()
	allocs := testing.AllocsPerRun(20, runOnce)
	perRow := allocs / float64(n)
	if perRow > 1.1 {
		t.Errorf("label scan allocates %.2f allocs/row (%.0f total for %d rows), budget 1.1", perRow, allocs, n)
	}
}

// TestExpandSkipsUniquenessSetWhenUnconstrained verifies the first expand of
// a MATCH (no earlier relationship variables) never builds a uniqueness set,
// and that constrained expands still enforce relationship isomorphism.
func TestExpandSkipsUniquenessSetWhenUnconstrained(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b := g.CreateNode([]string{"B"}, nil)
	if _, err := g.CreateRelationship(a, b, "T", nil); err != nil {
		t.Fatal(err)
	}
	// (a)-[r1:T]->(b)<-[r2:T]-(a) must not reuse the single relationship
	// under edge isomorphism: one hop out, zero rows back.
	tbl := runQuery(t, g, Options{}, "MATCH (x:A)-[r1:T]->(y:B)<-[r2:T]-(z) RETURN r1, r2")
	if tbl.Len() != 0 {
		t.Errorf("relationship isomorphism violated: got %d rows", tbl.Len())
	}
	// Homomorphism allows the reuse.
	tbl = runQuery(t, g, Options{Morphism: Homomorphism}, "MATCH (x:A)-[r1:T]->(y:B)<-[r2:T]-(z) RETURN r1, r2")
	if tbl.Len() != 1 {
		t.Errorf("homomorphism should allow reuse: got %d rows", tbl.Len())
	}
}

// TestBorrowedRowsSurviveRetainingOperators covers the operators that must
// clone borrowed rows: Sort buffers, MERGE match lists, and the result
// table. A query whose rows are all distinct would pass even with aliasing
// bugs; these shapes produce many rows from one reused buffer, so aliasing
// would collapse them to copies of the last row.
func TestBorrowedRowsSurviveRetainingOperators(t *testing.T) {
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.CreateNode([]string{"N"}, map[string]value.Value{"i": value.NewInt(int64(i))})
	}
	tbl := runQuery(t, g, Options{}, "MATCH (n:N) RETURN n.i AS i ORDER BY i DESC")
	if tbl.Len() != 10 {
		t.Fatalf("expected 10 rows, got %d", tbl.Len())
	}
	for i := 0; i < 10; i++ {
		want := int64(9 - i)
		if got, _ := value.AsInt(tbl.Records[i].Get("i")); got != want {
			t.Fatalf("row %d = %v, want %d (aliased row buffers?)", i, tbl.Records[i].Get("i"), want)
		}
	}
	// Unsorted retention via the result table.
	tbl = runQuery(t, g, Options{}, "MATCH (n:N) RETURN n.i AS i")
	seen := map[int64]bool{}
	for i := range tbl.Records {
		v, _ := value.AsInt(tbl.Records[i].Get("i"))
		if seen[v] {
			t.Fatalf("duplicate row value %d: emitted rows were retained without cloning", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("expected 10 distinct values, got %d", len(seen))
	}
}

// TestProjectShadowingVariable pins the regression where a projection item
// shadowing a pattern variable (RETURN a.name AS a) scribbled over the
// scan's binding in the shared row buffer.
func TestProjectShadowingVariable(t *testing.T) {
	g := graph.New()
	n1 := g.CreateNode([]string{"P"}, map[string]value.Value{"name": value.NewString("x")})
	n2 := g.CreateNode([]string{"P"}, map[string]value.Value{"name": value.NewString("y")})
	n3 := g.CreateNode([]string{"P"}, map[string]value.Value{"name": value.NewString("z")})
	for _, to := range []*graph.Node{n2, n3} {
		if _, err := g.CreateRelationship(n1, to, "T", nil); err != nil {
			t.Fatal(err)
		}
	}
	tbl := runQuery(t, g, Options{}, "MATCH (a:P)-[:T]->(b:P) RETURN a.name AS a, b.name AS b")
	if tbl.Len() != 2 {
		t.Fatalf("expected 2 rows, got %d:\n%s", tbl.Len(), tbl.String())
	}
	for i := range tbl.Records {
		a, _ := value.AsString(tbl.Records[i].Get("a"))
		if a != "x" {
			t.Fatalf("row %d: a = %q, want \"x\" (projection clobbered the scan variable)", i, a)
		}
	}
}

// TestSlotOverflowBindings exercises names outside the plan's slot table
// (list-comprehension and reduce binders) alongside slotted variables.
func TestSlotOverflowBindings(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"N"}, map[string]value.Value{"xs": value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3))})
	tbl := runQuery(t, g, Options{},
		"MATCH (n:N) RETURN [x IN n.xs WHERE x > 1 | x * 10] AS big, reduce(acc = 0, x IN n.xs | acc + x) AS total")
	if tbl.Len() != 1 {
		t.Fatalf("expected 1 row, got %d", tbl.Len())
	}
	if got := tbl.Records[0].Get("big").String(); got != "[20, 30]" {
		t.Errorf("big = %s", got)
	}
	if got, _ := value.AsInt(tbl.Records[0].Get("total")); got != 6 {
		t.Errorf("total = %d", got)
	}
}

// BenchmarkExpandHot drives the expand loop alone: one hub row in, fanout
// rows out, no projection or aggregation above it. This is the tightest
// emit loop the runtime has; ns/op and allocs/op here bound every MATCH.
func BenchmarkExpandHot(b *testing.B) {
	for _, fanout := range []int{16, 256} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			g, _ := hubGraph(fanout)
			p := &plan.Plan{
				Root: &plan.Expand{
					Input:     &plan.NodeByLabelScan{Input: &plan.Start{}, Var: "a", Label: "Hub"},
					FromVar:   "a",
					RelVar:    "r",
					ToVar:     "b",
					Types:     []string{"T"},
					Direction: ast.DirOutgoing,
				},
				Columns:  []string{"b"},
				ReadOnly: true,
			}
			ex := New(g, nil, Options{})
			ex.tab = plan.ComputeSlots(p)
			ex.readOnly = true
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ex.run(p.Root, nil, func(result.Record) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// seekExpandBytes runs a warm one-node seek + expand + projection plan at the
// given batch size and returns the bytes it allocates per execution,
// measured with runtime.MemStats over many runs on one goroutine.
func seekExpandBytes(t *testing.T, batchSize int) float64 {
	t.Helper()
	g := graph.New()
	g.CreateIndex("Person", "name")
	people := make([]*graph.Node, 50)
	for i := range people {
		people[i] = g.CreateNode([]string{"Person"}, map[string]value.Value{
			"name": value.NewString(fmt.Sprintf("p%d", i)),
			"age":  value.NewInt(int64(20 + i)),
		})
	}
	for i, a := range people {
		for k := 1; k <= 3; k++ {
			if _, err := g.CreateRelationship(a, people[(i+k)%len(people)], "KNOWS", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	q, err := parser.Parse("MATCH (a:Person {name: $name})-[:KNOWS]->(b) RETURN b.name, b.age")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := planner.New(g).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.String(), "NodeIndexSeek") {
		t.Fatalf("expected an index seek:\n%s", pl.String())
	}
	params := map[string]value.Value{"name": value.NewString("p7")}
	runOnce := func() {
		tbl, err := New(g, params, Options{BatchSize: batchSize}).Execute(pl)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Len() != 3 {
			t.Fatalf("expected 3 rows, got %d", tbl.Len())
		}
	}
	for i := 0; i < 10; i++ {
		runOnce() // warm the batch pool and the seek
	}
	// The smallest of three rounds: the batch pool may drop a batch at any
	// GC, and one re-allocated 8192-row batch must not fail the comparison.
	const runs = 200
	best := -1.0
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			runOnce()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; best < 0 || b < best {
			best = b
		}
	}
	return best
}

// TestSeekExpandBytesIndependentOfBatchSize pins that per-execution scratch
// is sized to the input that arrives, not to the batch capacity: a one-node
// seek feeding an expand allocates the same bytes at BatchSize 1024 and
// 8192.
func TestSeekExpandBytesIndependentOfBatchSize(t *testing.T) {
	if raceEnabled {
		t.Skip("byte budgets do not hold under the race detector")
	}
	small := seekExpandBytes(t, 1024)
	large := seekExpandBytes(t, 8192)
	t.Logf("bytes per execution: %.0f at BatchSize 1024, %.0f at BatchSize 8192", small, large)
	if large > small*1.10 {
		t.Errorf("seek+expand allocates %.0f B/execution at BatchSize 8192 but %.0f B at 1024: scratch scales with batch capacity", large, small)
	}
}
