package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// TestExpandIntoProbesSmallerSide pins the bound-endpoints expansion under
// asymmetric degrees — the executor probes whichever endpoint has the
// smaller adjacency, so both orientations of the probe must count the same
// relationships: parallel edges in both directions, self-loops excluded,
// direction respected.
func TestExpandIntoProbesSmallerSide(t *testing.T) {
	g := graph.New()
	a := g.CreateNode([]string{"A"}, nil)
	b := g.CreateNode([]string{"B"}, nil)
	mustRel := func(from, to *graph.Node) {
		t.Helper()
		if _, err := g.CreateRelationship(from, to, "R", nil); err != nil {
			t.Fatal(err)
		}
	}
	// 3 parallel a->b edges, 2 b->a edges, one self-loop on each node.
	mustRel(a, b)
	mustRel(a, b)
	mustRel(a, b)
	mustRel(b, a)
	mustRel(b, a)
	mustRel(a, a)
	mustRel(b, b)
	// Inflate a's degree with spokes so the probe flips to b's side for
	// a-as-from queries (and covers the unflipped path for b-as-from).
	for i := 0; i < 50; i++ {
		mustRel(a, g.CreateNode([]string{"Spoke"}, nil))
	}
	e := NewEngine(g, Options{})

	cases := []struct {
		query string
		want  int64
	}{
		{"MATCH (a:A) MATCH (b:B) MATCH (a)-[:R]->(b) RETURN count(*) AS c", 3},
		{"MATCH (a:A) MATCH (b:B) MATCH (a)<-[:R]-(b) RETURN count(*) AS c", 2},
		{"MATCH (a:A) MATCH (b:B) MATCH (a)-[:R]-(b) RETURN count(*) AS c", 5},
		{"MATCH (a:A) MATCH (b:B) MATCH (b)-[:R]->(a) RETURN count(*) AS c", 2},
		// Self-probe (cyclic pattern on one node) keeps the from side: the
		// self-loop is found exactly once per direction.
		{"MATCH (a:A) MATCH (a)-[:R]->(a) RETURN count(*) AS c", 1},
		{"MATCH (a:A)-[r1:R]->(b:B)<-[r2:R]-(a) RETURN count(*) AS c", 6}, // 3 a->b edges x 2 remaining (rel-isomorphism)
	}
	for _, c := range cases {
		res := run(t, e, c.query)
		if got := res.Rows()[0][0]; value.Compare(got, value.NewInt(c.want)) != 0 {
			t.Errorf("%s = %s, want %d\nplan:\n%s", c.query, got, c.want, res.Plan())
		}
	}
}

// TestSeekSemanticsEdgeCases pins the agreement between index seeks and the
// filter predicates they replace on the awkward inputs: null bounds, type
// mismatches, missing properties, and IN over a non-list.
func TestSeekSemanticsEdgeCases(t *testing.T) {
	g := graph.New()
	g.CreateNode([]string{"P"}, map[string]value.Value{"k": value.NewInt(1)})
	g.CreateNode([]string{"P"}, map[string]value.Value{"k": value.NewString("s")})
	g.CreateNode([]string{"P"}, nil) // no property
	g.CreateIndex("P", "k")
	e := NewEngine(g, Options{})

	count := func(q string, params map[string]any) int64 {
		t.Helper()
		res, err := e.RunWithGoParams(q, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		n, _ := value.AsInt(res.Rows()[0][0])
		return n
	}
	if got := count("MATCH (n:P) WHERE n.k > 0 RETURN count(n) AS c", nil); got != 1 {
		t.Errorf("numeric range must skip the string and missing properties, got %d", got)
	}
	if got := count("MATCH (n:P) WHERE n.k > $b RETURN count(n) AS c", map[string]any{"b": nil}); got != 0 {
		t.Errorf("null bound matches nothing, got %d", got)
	}
	if got := count("MATCH (n:P) WHERE n.k STARTS WITH 's' RETURN count(n) AS c", nil); got != 1 {
		t.Errorf("prefix seek, got %d", got)
	}
	if got := count("MATCH (n:P) WHERE n.k IN [1.0, 's', null] RETURN count(n) AS c", nil); got != 2 {
		t.Errorf("IN seek with mixed list, got %d", got)
	}
	// IN over a non-list must error exactly like the evaluator does.
	_, err := e.RunWithGoParams("MATCH (n:P) WHERE n.k IN $x RETURN n", map[string]any{"x": 5})
	if err == nil || !strings.Contains(err.Error(), "IN requires a list") {
		t.Errorf("IN over a non-list should type-error, got %v", err)
	}
}

// TestStatisticsAndIndexesSurviveRecovery proves the acceptance criterion
// that statistics are rebuilt by WAL replay: after reopening a durable
// graph, the selectivity counters match, EXPLAIN still chooses the range
// seek, and the seek returns the right rows.
func TestStatisticsAndIndexesSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir)
	if err := e.CreateIndex("P", "age"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		runParams(t, e, "CREATE (:P {age: $a})", map[string]any{"a": i % 10})
	}
	// Mutations after the index exists keep the counters moving.
	run(t, e, "MATCH (n:P) WHERE n.age = 0 DETACH DELETE n")
	before := e.Graph().Stats()
	planBefore := run(t, e, "MATCH (n:P) WHERE n.age > 7 RETURN count(n) AS c")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	e2, st2 := openDurable(t, dir)
	defer st2.Close()
	after := e2.Graph().Stats()
	bi, ok1 := before.Index("P", "age")
	ai, ok2 := after.Index("P", "age")
	if !ok1 || !ok2 || bi != ai {
		t.Fatalf("index statistics diverged across recovery: %+v vs %+v", bi, ai)
	}
	if bi.Entries != 45 || bi.DistinctKeys != 9 {
		t.Fatalf("unexpected counters before recovery: %+v", bi)
	}
	plan, err := e2.Explain("MATCH (n:P) WHERE n.age > 7 RETURN count(n) AS c")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NodeIndexRangeSeek(n:P {age > 7})") {
		t.Errorf("recovered graph should still plan a range seek:\n%s", plan)
	}
	res := run(t, e2, "MATCH (n:P) WHERE n.age > 7 RETURN count(n) AS c")
	if value.Compare(res.Rows()[0][0], planBefore.Rows()[0][0]) != 0 {
		t.Errorf("recovered seek result %s != pre-crash %s", res.Rows()[0][0], planBefore.Rows()[0][0])
	}
}

// TestExplainRuntimeParallelismForSeekLeaf covers the engine's mirror of the
// executor's worker choice when the partitionable leaf is an index seek: the
// planner's estimate decides the morsel count shown by EXPLAIN.
func TestExplainRuntimeParallelismForSeekLeaf(t *testing.T) {
	g := graph.New()
	for i := 0; i < 5000; i++ {
		g.CreateNode([]string{"P"}, map[string]value.Value{"k": value.NewInt(int64(i % 100))})
	}
	g.CreateIndex("P", "k")
	e := NewEngine(g, Options{Parallelism: 4, MorselSize: 128})
	pl, err := e.Explain("MATCH (n:P) WHERE n.k > 50 RETURN count(n) AS c")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "NodeIndexRangeSeek") {
		t.Fatalf("expected a range-seek leaf:\n%s", pl)
	}
	if !strings.Contains(pl, "runtime parallelism: 4") {
		t.Errorf("a seek estimated at >4 morsels should use the full worker budget:\n%s", pl)
	}
	// And the execution itself goes parallel with correct results.
	res := run(t, e, "MATCH (n:P) WHERE n.k > 50 RETURN count(n) AS c")
	if res.Parallelism < 2 {
		t.Errorf("seek-leaf execution stayed serial (%d workers)", res.Parallelism)
	}
	if value.Compare(res.Rows()[0][0], value.NewInt(49*50)) != 0 {
		t.Errorf("parallel seek count = %s, want %d", res.Rows()[0][0], 49*50)
	}
	// A tiny seek keeps runtime parallelism at 1.
	pl, err = e.Explain("MATCH (n:P) WHERE n.k = 1 RETURN count(n) AS c")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "runtime parallelism: 1") {
		t.Errorf("single-morsel seek should report serial runtime:\n%s", pl)
	}
}

// TestImportFromCopiesDataAndIndexes covers the dataset-seeding path: graph
// contents, relationships and index declarations (with their statistics)
// survive the copy into a fresh engine.
func TestImportFromCopiesDataAndIndexes(t *testing.T) {
	src := graph.New()
	a := src.CreateNode([]string{"P"}, map[string]value.Value{"k": value.NewInt(1)})
	b := src.CreateNode([]string{"P"}, map[string]value.Value{"k": value.NewInt(2)})
	if _, err := src.CreateRelationship(a, b, "R", map[string]value.Value{"w": value.NewInt(9)}); err != nil {
		t.Fatal(err)
	}
	src.CreateIndex("P", "k")

	e := emptyEngine()
	if err := e.ImportFrom(src); err != nil {
		t.Fatal(err)
	}
	s := e.Graph().Stats()
	if s.NodeCount != 2 || s.RelationshipCount != 1 {
		t.Fatalf("imported stats = %+v", s)
	}
	is, ok := s.Index("P", "k")
	if !ok || is.Entries != 2 || is.DistinctKeys != 2 {
		t.Fatalf("imported index stats = %+v (ok=%v)", is, ok)
	}
	res := run(t, e, "MATCH (x:P)-[r:R]->(y:P) WHERE x.k < 2 RETURN y.k AS yk, r.w AS w")
	expectOrdered(t, res, [][]any{{int64(2), int64(9)}})
}

// TestErrorCapablePredicatesKeepLegacyFilterPosition pins the review fix:
// conjunct pushdown must not evaluate error-capable expressions on rows the
// legacy post-pattern filter never saw. A WHERE containing any expression
// that can raise a runtime error (arithmetic, here division by zero) is not
// split: it stays one filter above the fully planned pattern, so a query
// whose pattern matches nothing still succeeds — and one that does match
// still errors, exactly as before the cost-based planner.
func TestErrorCapablePredicatesKeepLegacyFilterPosition(t *testing.T) {
	e := emptyEngine()
	// Empty graph: the filter is never evaluated, no error.
	res := run(t, e, "MATCH (a) WHERE a.x > 0 AND 1/0 = 1 RETURN a")
	if res.Len() != 0 {
		t.Fatalf("expected zero rows, got %d", res.Len())
	}
	if !strings.Contains(res.Plan(), "Filter(a.x > 0 AND 1 / 0 = 1)") {
		t.Errorf("error-capable WHERE must stay one unsplit filter:\n%s", res.Plan())
	}
	// Pattern yields no rows past the expansion: still no error.
	run(t, e, "CREATE (:Person {age: 1})")
	res = run(t, e, "MATCH (a:Person)-->(b) WHERE a.age/0 = 1 RETURN b")
	if res.Len() != 0 {
		t.Fatalf("expected zero rows, got %d", res.Len())
	}
	// A row actually reaches the filter: the error must still surface.
	if _, err := e.Run("MATCH (a:Person) WHERE a.age > 0 AND 1/0 = 1 RETURN a", nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("matched rows must still raise the evaluation error, got %v", err)
	}
	// Error-free conjuncts still split and seek as usual.
	e.Graph().CreateIndex("Person", "age")
	res = run(t, e, "MATCH (a:Person) WHERE a.age > 0 AND a.age < 5 RETURN a")
	if !strings.Contains(res.Plan(), "NodeIndexRangeSeek") {
		t.Errorf("error-free conjuncts must keep seeking:\n%s", res.Plan())
	}
}
