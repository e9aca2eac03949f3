package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/value"
)

// TestConcurrentReadWriteHammer drives the engine from many goroutines
// mixing read-only and mutating queries. Run under -race it checks the
// engine's read/write lock discipline: readers share the engine, writers
// serialize, and no query observes a torn graph.
func TestConcurrentReadWriteHammer(t *testing.T) {
	g := datasets.SocialNetwork(datasets.SocialConfig{People: 200, FriendsEach: 4, Seed: 7})
	e := NewEngine(g, Options{})

	const (
		readers         = 8
		writers         = 4
		roundsPerWorker = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			queries := []string{
				"MATCH (p:Person) RETURN count(*) AS c",
				"MATCH (a:Person)-[:KNOWS]->(b) RETURN count(b) AS c",
				"MATCH (p:Person) WHERE p.age >= 40 RETURN count(*) AS c",
			}
			for i := 0; i < roundsPerWorker; i++ {
				res, err := e.Run(queries[i%len(queries)], nil)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 1 {
					errs <- fmt.Errorf("reader %d: aggregate should return one row, got %d", id, res.Len())
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < roundsPerWorker; i++ {
				name := fmt.Sprintf("writer-%d-%d", id, i)
				// Create, mutate and delete so the graph churns while
				// readers scan it.
				if _, err := e.RunWithGoParams(
					"CREATE (:Scratch {name: $n})", map[string]any{"n": name}); err != nil {
					errs <- err
					return
				}
				if _, err := e.RunWithGoParams(
					"MATCH (s:Scratch {name: $n}) SET s.touched = true", map[string]any{"n": name}); err != nil {
					errs <- err
					return
				}
				if _, err := e.RunWithGoParams(
					"MATCH (s:Scratch {name: $n}) DETACH DELETE s", map[string]any{"n": name}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All scratch nodes were deleted; the original dataset must be intact.
	res := run(t, e, "MATCH (s:Scratch) RETURN count(*) AS c")
	if rows(res)[0][0].(int64) != 0 {
		t.Errorf("scratch nodes left behind: %v", rows(res)[0][0])
	}
	res = run(t, e, "MATCH (p:Person) RETURN count(*) AS c")
	if rows(res)[0][0].(int64) != 200 {
		t.Errorf("person count disturbed: %v", rows(res)[0][0])
	}
}

// TestResultsAreSnapshots checks that entity values in a result are
// detached copies: reading a returned node's properties after Run has
// released its lock must not race with (or observe) later writers.
func TestResultsAreSnapshots(t *testing.T) {
	e := emptyEngine()
	run(t, e, "CREATE (:Person {name: 'Ada', age: 1})")

	res, err := e.Run("MATCH (p:Person) RETURN p", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate from other goroutines while we read the returned node; under
	// -race this fails if the result still points at live store maps.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := e.Run("MATCH (p:Person) SET p.age = p.age + 1", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	node := res.Table.Records[0].Get("p").(value.NodeValue).N
	for i := 0; i < 100; i++ {
		node.Property("age")
		node.PropertyKeys()
		node.Labels()
	}
	wg.Wait()

	// The snapshot shows the state as of the query that produced it.
	if got := value.ToGo(node.Property("age")); got != int64(1) {
		t.Errorf("snapshot should still see age = 1, got %v", got)
	}
	res2 := run(t, e, "MATCH (p:Person) RETURN p.age")
	if got := rows(res2)[0][0]; got != int64(201) {
		t.Errorf("live graph should see age = 201, got %v", got)
	}
}

// TestPlanCacheInvalidationOnIndex checks the epoch-based invalidation end
// to end: a cached label-scan plan must be recompiled into an index seek
// after CREATE INDEX, even though the query text is identical.
func TestPlanCacheInvalidationOnIndex(t *testing.T) {
	g, _ := datasets.Citations()
	e := NewEngine(g, Options{})
	const query = "MATCH (r:Researcher {name: 'Elin'}) RETURN r.name"

	res := run(t, e, query)
	if strings.Contains(res.Plan(), "NodeIndexSeek") {
		t.Fatalf("no index exists yet, plan should not seek:\n%s", res.Plan())
	}
	// Re-run: same epoch, so the plan must come from the cache.
	run(t, e, query)
	if s := e.PlanCacheStats(); s.Hits == 0 {
		t.Errorf("second run should hit the plan cache: %+v", s)
	}

	g.CreateIndex("Researcher", "name")

	pl, err := e.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl, "NodeIndexSeek") {
		t.Errorf("after CREATE INDEX the cached plan must be invalidated and recompiled to NodeIndexSeek:\n%s", pl)
	}
	res = run(t, e, query)
	if !strings.Contains(res.Plan(), "NodeIndexSeek") {
		t.Errorf("Run should also pick up the recompiled plan:\n%s", res.Plan())
	}
	if s := e.PlanCacheStats(); s.Invalidations == 0 {
		t.Errorf("index creation should have invalidated the cached plan: %+v", s)
	}
}

// TestPlanCacheInvalidationOnWrite checks that a mutating query moves the
// graph epoch so cached read plans are recompiled against fresh statistics.
func TestPlanCacheInvalidationOnWrite(t *testing.T) {
	e := emptyEngine()
	run(t, e, "CREATE (:Person {name: 'Ada'})")
	const query = "MATCH (p:Person) RETURN count(*) AS c"

	res := run(t, e, query)
	expectOrdered(t, res, [][]any{{1}})
	before := e.PlanCacheStats()

	run(t, e, "CREATE (:Person {name: 'Grace'})")
	res = run(t, e, query)
	expectOrdered(t, res, [][]any{{2}})

	after := e.PlanCacheStats()
	if after.Invalidations <= before.Invalidations {
		t.Errorf("a write should invalidate the cached read plan: before %+v after %+v", before, after)
	}
}

// TestPlanCacheHitsSkipRecompile checks the steady-state fast path: repeated
// runs of the same query text at an unchanged epoch are all cache hits.
func TestPlanCacheHitsSkipRecompile(t *testing.T) {
	g, _ := datasets.Teachers()
	e := NewEngine(g, Options{})
	const query = "MATCH (t:Teacher) RETURN count(*) AS c"
	for i := 0; i < 5; i++ {
		run(t, e, query)
	}
	s := e.PlanCacheStats()
	if s.Hits < 4 {
		t.Errorf("4 of 5 runs should be plan-cache hits: %+v", s)
	}
	if s.Entries != 1 {
		t.Errorf("one query text should occupy one entry: %+v", s)
	}
}
