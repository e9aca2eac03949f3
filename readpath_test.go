package cypher

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// seekGraph builds a small social graph with an index on :Person(name), so
// the read below plans as a one-node index seek followed by an expand.
func seekGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	if err := g.CreateIndex("Person", "name"); err != nil {
		t.Fatal(err)
	}
	g.MustRun("UNWIND range(0, 199) AS i CREATE (:Person {name: 'p' + toString(i), age: 20 + i % 50})", nil)
	g.MustRun(`MATCH (a:Person), (b:Person)
		WITH a, b, toInteger(substring(a.name, 1)) AS i, toInteger(substring(b.name, 1)) AS j
		WHERE j = (i + 1) % 200 OR j = (i + 7) % 200 OR j = (i + 31) % 200
		CREATE (a)-[:KNOWS]->(b)`, nil)
	return g
}

const seekQuery = "MATCH (a:Person {name: $name})-[:KNOWS]->(b) RETURN b.name, b.age"

// TestWarmSeekByteBudget pins the bytes a warm one-node seek allocates on
// the public read path (Graph.QueryContext + Rows). Nothing on it may scale
// with the batch capacity, and nothing may be produced that the caller did
// not ask for, such as the rendered plan text.
func TestWarmSeekByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("byte budgets do not hold under the race detector")
	}
	g := seekGraph(t)
	ctx := context.Background()
	params := map[string]any{"name": "p42"}
	runOnce := func() {
		res, err := g.QueryContext(ctx, seekQuery, params, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rows := res.Rows(); len(rows) != 3 {
			t.Fatalf("expected 3 rows, got %d", len(rows))
		}
	}
	for i := 0; i < 20; i++ {
		runOnce() // warm the plan cache and the batch pools
	}
	const runs = 400
	best := -1.0
	// The smallest of three rounds: TotalAlloc is process-wide, and a
	// stray background allocation must not fail the budget.
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			runOnce()
		}
		runtime.ReadMemStats(&after)
		perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if best < 0 || perQuery < best {
			best = perQuery
		}
	}
	t.Logf("warm seek allocates %.0f B/query", best)
	const budget = 6 << 10
	if best > budget {
		t.Errorf("warm seek allocates %.0f B/query, budget %d B", best, budget)
	}
}

// TestResultPlanMatchesExplain checks that the plan text a result reports
// is the EXPLAIN text without its runtime parallelism line, both when the
// query is planned afresh and when its plan comes from the cache.
func TestResultPlanMatchesExplain(t *testing.T) {
	g := seekGraph(t)
	run := func(name string) (plan string, hit bool) {
		t.Helper()
		before := g.PlanCacheStats().Hits
		res, err := g.Run(seekQuery, map[string]any{"name": name})
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan(), g.PlanCacheStats().Hits > before
	}
	fresh, hit := run("p0")
	if hit {
		t.Fatalf("first run hit the plan cache")
	}
	explain, err := g.Explain(seekQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, _, found := strings.Cut(explain, "runtime parallelism:")
	if !found {
		t.Fatalf("EXPLAIN has no runtime parallelism line:\n%s", explain)
	}
	if !strings.Contains(want, "NodeIndexSeek") {
		t.Fatalf("expected an index seek:\n%s", want)
	}
	cached, hit := run("p1")
	if !hit {
		t.Fatalf("second run did not hit the plan cache")
	}
	for _, c := range []struct{ name, got string }{{"fresh plan", fresh}, {"cached plan", cached}} {
		if c.got != want {
			t.Errorf("%s: Result.Plan() differs from EXPLAIN\ngot:\n%s\nwant:\n%s", c.name, c.got, want)
		}
	}
}
