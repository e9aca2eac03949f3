package cypher

// End-to-end tests for vectorized batch execution: differential runs of the
// engine across batch sizes (including row-at-a-time) and worker counts,
// byte-identical output required everywhere, with the reference semantics as
// the independent oracle. Batch sizes 1 and 3 force batch boundaries inside
// every operator; 1024 is the production default.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/exec"
	"repro/internal/parser"
	"repro/internal/refsem"
	"repro/internal/result"
)

// vectorizedCorpus leans on the batchable segment — scans and seeks under
// filters, projections, expands and limits — plus shapes that exercise the
// batched/row boundary (aggregation, sorting, DISTINCT, OPTIONAL MATCH,
// var-length paths) and the fallbacks (UNION, updating-free WITH chains).
var vectorizedCorpus = []string{
	// Pure batched pipelines: scan -> [filter] -> project -> select.
	"MATCH (p:Person) RETURN p.name AS name ORDER BY name",
	"MATCH (p:Person) WHERE p.age >= 30 AND p.age < 40 RETURN p.name AS name, p.age AS age ORDER BY age, name",
	"MATCH (p:Person) WHERE 35 < p.age RETURN count(*) AS c",
	"MATCH (p:Person) WHERE p.name STARTS WITH 'person-1' RETURN p.name AS name ORDER BY name",
	"MATCH (p:Person) WHERE p.age IN [20, 30, 40] RETURN p.name AS name ORDER BY name",
	// Null-property comparisons: missing properties compare as null and are
	// filtered out on both paths.
	"MATCH (p:Person) WHERE p.missing > 1 RETURN count(*) AS c",
	"MATCH (p:Person) WHERE p.age > 30 OR p.age < 5 RETURN count(*) AS c",
	"MATCH (p:Person) WHERE NOT p.age < 50 RETURN count(*) AS c",
	// Batched expand, with and without a relationship variable, both
	// directions, plus uniqueness constraints from two-hop patterns.
	"MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name AS a, b.name AS b",
	"MATCH (a:Person)-[r:KNOWS]->(b) WHERE a.age < b.age RETURN count(r) AS c",
	"MATCH (a:Person)<-[:KNOWS]-(b) RETURN count(*) AS c",
	"MATCH (a:Person)--(b) RETURN count(*) AS c",
	"MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN count(*) AS c",
	// LIMIT inside the batched segment (no barrier above the scan).
	"MATCH (p:Person) RETURN p.name AS name ORDER BY name LIMIT 7",
	// Row-path shapes above the batched prefix: aggregation, DISTINCT,
	// OPTIONAL MATCH, WITH scope cuts, var-length paths, UNWIND, UNION.
	"MATCH (p:Person) RETURN p.age AS age, count(*) AS c ORDER BY age",
	"MATCH (a:Person)-[:KNOWS]->(b) RETURN DISTINCT b.name AS name ORDER BY name",
	"MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) WHERE b.age > 60 RETURN a.name AS name, count(b) AS friends ORDER BY name",
	"MATCH (p:Person) WITH p.age AS age WHERE age > 55 RETURN count(*) AS c",
	"MATCH (a:Person)-[:KNOWS*1..2]->(b) RETURN count(*) AS c",
	"UNWIND [3, 1, 2] AS x MATCH (p:Person {age: x}) RETURN x, p.name AS name ORDER BY x, name",
	"MATCH (p:Person) WHERE p.age < 3 RETURN p.name AS n UNION MATCH (p:Person) WHERE p.age > 97 RETURN p.name AS n",
}

// TestVectorizedDifferentialBatchSizes runs the corpus at batch sizes 1, 3
// and 1024 and at 1, 4 and 8 workers, requiring byte-identical output to the
// row-at-a-time serial engine, and checks the row engine against the
// reference semantics so the whole family is anchored to the spec.
func TestVectorizedDifferentialBatchSizes(t *testing.T) {
	store := datasets.SocialNetwork(datasets.SocialConfig{People: 100, FriendsEach: 4, Seed: 42})
	row := Wrap(store, Options{BatchSize: -1})
	type cfg struct {
		batch   int
		workers int
	}
	cfgs := []cfg{
		{1, 1}, {3, 1}, {1024, 1},
		{-1, 4}, {1, 4}, {3, 4}, {1024, 4},
		{3, 8}, {1024, 8},
	}
	engines := make(map[cfg]*Graph, len(cfgs))
	for _, c := range cfgs {
		engines[c] = Wrap(store, Options{BatchSize: c.batch, Parallelism: c.workers, MorselSize: 16})
	}
	for _, q := range vectorizedCorpus {
		want := row.MustRun(q, nil)
		for _, c := range cfgs {
			got := engines[c].MustRun(q, nil)
			if got.String() != want.String() {
				t.Errorf("batch=%d workers=%d diverged from row-at-a-time for %s\ngot:\n%s\nwant:\n%s",
					c.batch, c.workers, q, got.String(), want.String())
			}
		}
		parsed, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		ref, err := refsem.Evaluate(parsed, store, nil)
		if err != nil {
			t.Fatalf("refsem %s: %v", q, err)
		}
		if !result.EqualAsBags(want.inner.Table, ref) {
			t.Errorf("engine disagrees with the reference semantics for %s\nengine:\n%s\nreference:\n%s",
				q, want.String(), ref.String())
		}
	}
}

// TestVectorizedDisabledOption checks BatchSize < 0 really pins the row
// path: the option exists so benchmarks and bisection can isolate the
// vectorized runtime, and it must not change results.
func TestVectorizedDisabledOption(t *testing.T) {
	g := NewWithOptions(Options{BatchSize: -1})
	for i := 0; i < 10; i++ {
		g.MustRun("CREATE (:N {i: $i})", map[string]any{"i": i})
	}
	res := g.MustRun("MATCH (n:N) WHERE n.i >= 5 RETURN count(*) AS c", nil)
	if got := res.Records()[0]["c"]; got != int64(5) {
		t.Fatalf("count = %v, want 5", got)
	}
}

// TestVectorizedRaceHammer drives batched pipelines from many goroutines on
// shared engines, checking every result against a precomputed answer. Under
// -race this proves the pooled batches never leak across queries or
// workers; without -race a dirty pooled batch still shows up as a wrong
// row count or value.
func TestVectorizedRaceHammer(t *testing.T) {
	store := datasets.SocialNetwork(datasets.SocialConfig{People: 300, FriendsEach: 4, Seed: 9})
	serial := Wrap(store, Options{})
	parallel := Wrap(store, Options{Parallelism: 4, MorselSize: 32})
	queries := []string{
		"MATCH (p:Person) WHERE p.age >= 20 AND p.age < 60 RETURN count(*) AS c",
		"MATCH (a:Person)-[:KNOWS]->(b) WHERE b.age > 40 RETURN count(*) AS c",
		"MATCH (p:Person) WHERE p.name STARTS WITH 'person-2' RETURN count(*) AS c",
		"MATCH (a:Person)-[r:KNOWS]->(b) RETURN count(r) AS c",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = serial.MustRun(q, nil).String()
		if got := parallel.MustRun(q, nil).String(); got != want[i] {
			t.Fatalf("parallel warm-up diverged for %s", q)
		}
	}
	const goroutines = 8
	const iterations = 25
	var wg sync.WaitGroup
	errCh := make(chan string, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			eng := serial
			if gi%2 == 1 {
				eng = parallel
			}
			for i := 0; i < iterations; i++ {
				qi := (gi + i) % len(queries)
				res, err := eng.Run(queries[qi], nil)
				if err != nil {
					errCh <- err.Error()
					return
				}
				if res.String() != want[qi] {
					errCh <- "goroutine result diverged for " + queries[qi] + ":\n" + res.String() + "\nwant:\n" + want[qi]
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	if msg := <-errCh; msg != "" {
		t.Fatal(msg)
	}
}

// aggStore holds 200 :N nodes whose v property mixes Int, Float and null
// (1 and 1.0 must fall into one DISTINCT group), plus one :R relationship
// per node with an Int w property.
func aggStore(t *testing.T) *Graph {
	t.Helper()
	g := NewWithOptions(Options{})
	g.MustRun(`UNWIND range(0, 199) AS i CREATE (:N {i: i, g: i % 7, s: 'n' + toString(i),
		v: CASE i % 5 WHEN 0 THEN null WHEN 1 THEN toFloat(i % 3) ELSE i % 3 END})`, nil)
	g.MustRun(`MATCH (a:N), (b:N) WHERE b.i = (a.i * 7 + 3) % 200 CREATE (a)-[:R {w: a.i % 4}]->(b)`, nil)
	return g
}

// aggConfigs is the batch-size × worker-count matrix the aggregate kernel
// must agree across; MorselSize 16 splits the 200-node scan into 13 morsels.
func aggConfigs() []Options {
	var out []Options
	for _, batch := range []int{-1, 1, 7, 1024} {
		for _, workers := range []int{1, 2, 4} {
			out = append(out, Options{BatchSize: batch, Parallelism: workers, MorselSize: 16})
		}
	}
	return out
}

// TestAggregateKernelDifferential runs aggregations through the terminal
// aggregate kernel at every batch size and worker count, requiring
// byte-identical output to the serial row path, which is itself checked
// against the reference semantics.
func TestAggregateKernelDifferential(t *testing.T) {
	store := aggStore(t).store
	queries := []string{
		// Grouped aggregates over compiled keys and arguments.
		"MATCH (n:N) RETURN n.g AS g, collect(n.i) AS c, min(n.v) AS mn, max(n.v) AS mx, sum(n.i) AS s, avg(n.i) AS a",
		"MATCH (n:N) RETURN n.g AS g, sum(n.v) AS s, avg(n.v) AS a, collect(n.v) AS c ORDER BY g",
		// DISTINCT over mixed Int/Float/null: 1 and 1.0 are one value.
		"MATCH (n:N) RETURN count(DISTINCT n.v) AS d, collect(DISTINCT n.v) AS c, sum(DISTINCT n.v) AS s",
		"MATCH (n:N) RETURN n.v AS v, count(*) AS c",
		"MATCH (n:N) RETURN n.g AS g, count(DISTINCT n.v) AS d, avg(DISTINCT n.v) AS a",
		// Through the expand kernel, with anonymous and named relationships.
		"MATCH (a:N)-[:R]->(b) RETURN count(DISTINCT b.v) AS d",
		"MATCH (a:N)-[r:R]->(b) RETURN r.w AS w, count(*) AS c, sum(b.i) AS s",
		"MATCH (a:N)-[:R]->(b)-[:R]->(c) RETURN a.g AS g, count(c) AS n",
		// Items without a batch form fall back one by one.
		"MATCH (n:N) RETURN n.g % 2 AS parity, sum(n.i * 2) AS s, count(n.v) AS c",
		"MATCH (n:N) RETURN n.g AS g, max(n.i + 1) AS m, collect(n.s) AS names",
		// Empty input: one row for the global form, none for the grouped.
		"MATCH (n:Missing) RETURN count(*) AS c, collect(n) AS l, sum(n.i) AS s",
		"MATCH (n:Missing) RETURN n.g AS g, count(*) AS c",
		"MATCH (n:N) WHERE n.i < 0 RETURN count(n) AS c, avg(n.i) AS a",
		"MATCH (n:N) WHERE n.i < 0 RETURN n.g AS g, count(*) AS c",
		// LIMIT under the aggregate, and row-path operators above it.
		"MATCH (n:N) WITH n LIMIT 50 RETURN count(*) AS c, sum(n.i) AS s",
		"MATCH (n:N) WITH n.g AS g, count(*) AS c WHERE c > 28 RETURN g, c ORDER BY g",
		"MATCH (n:N) RETURN DISTINCT n.g % 3 AS k, count(*) AS c",
	}
	row := Wrap(store, Options{BatchSize: -1})
	for _, q := range queries {
		want := row.MustRun(q, nil)
		for _, opts := range aggConfigs() {
			got, err := Wrap(store, opts).Run(q, nil)
			if err != nil {
				t.Errorf("batch=%d workers=%d: %s: %v", opts.BatchSize, opts.Parallelism, q, err)
				continue
			}
			if got.String() != want.String() {
				t.Errorf("batch=%d workers=%d diverged from the row path for %s\ngot:\n%s\nwant:\n%s",
					opts.BatchSize, opts.Parallelism, q, got.String(), want.String())
			}
		}
		parsed, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %s: %v", q, err)
		}
		ref, err := refsem.Evaluate(parsed, store, nil)
		if err != nil {
			t.Fatalf("refsem %s: %v", q, err)
		}
		if !result.EqualAsBags(want.inner.Table, ref) {
			t.Errorf("engine disagrees with the reference semantics for %s\nengine:\n%s\nreference:\n%s",
				q, want.String(), ref.String())
		}
	}
	// 1 and 1.0 are one DISTINCT value: v takes 0, 1, 2 (as Int and Float)
	// and null.
	res := row.MustRun("MATCH (n:N) RETURN count(DISTINCT n.v) AS d", nil)
	if d := res.Records()[0]["d"]; d != int64(3) {
		t.Errorf("count(DISTINCT n.v) = %v, want 3", d)
	}
}

// TestAggregateKernelErrors checks that an argument that fails, a budget
// exhausted while groups grow, and a deadline that expires mid-fold end the
// query with the same error on every path, and that every pooled batch is
// back in its pool afterwards.
func TestAggregateKernelErrors(t *testing.T) {
	store := aggStore(t).store
	for _, q := range []string{
		"MATCH (n:N) RETURN n.g AS g, sum(n.i / (n.i - n.i)) AS bad",
		"MATCH (n:N) RETURN n.i / 0 AS bad, count(*) AS c",
		"MATCH (a:N)-[:R]->(b) RETURN count(DISTINCT b.i % 0) AS bad",
	} {
		baseline := exec.BatchesOutstanding()
		_, wantErr := Wrap(store, Options{BatchSize: -1}).Run(q, nil)
		if wantErr == nil {
			t.Fatalf("%s: row path did not fail", q)
		}
		for _, opts := range aggConfigs() {
			_, err := Wrap(store, opts).Run(q, nil)
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("batch=%d workers=%d: %s: err = %v, want %v", opts.BatchSize, opts.Parallelism, q, err, wantErr)
			}
			if n := exec.BatchesOutstanding(); n != baseline {
				t.Errorf("batch=%d workers=%d: %s: %d pooled batches outstanding, want %d",
					opts.BatchSize, opts.Parallelism, q, n, baseline)
			}
		}
	}

	// The sink charges what the row path charges: the same peak on a
	// successful run, and exhaustion under a small budget.
	const grouped = "MATCH (n:N) RETURN n.i AS k, collect(n.s) AS c"
	peak := func(opts Options) int64 {
		g := Wrap(store, opts)
		if _, err := g.QueryContext(context.Background(), grouped, nil, QueryOptions{MemoryBudget: 1 << 30}); err != nil {
			t.Fatal(err)
		}
		return g.GovernanceStats().PeakQueryBytes
	}
	if row, batched := peak(Options{BatchSize: -1}), peak(Options{}); row != batched {
		t.Errorf("peak query bytes: row path %d, aggregate kernel %d", row, batched)
	}
	for _, opts := range aggConfigs() {
		baseline := exec.BatchesOutstanding()
		_, err := Wrap(store, opts).QueryContext(context.Background(), grouped, nil, QueryOptions{MemoryBudget: 4096})
		var exhausted *ResourceExhaustedError
		if !errors.As(err, &exhausted) {
			t.Errorf("batch=%d workers=%d: err = %v, want *ResourceExhaustedError", opts.BatchSize, opts.Parallelism, err)
		}
		if n := exec.BatchesOutstanding(); n != baseline {
			t.Errorf("batch=%d workers=%d: %d pooled batches outstanding after exhaustion, want %d",
				opts.BatchSize, opts.Parallelism, n, baseline)
		}
	}

	// Each row's argument costs a few microseconds, so the fold over the
	// 100k-node store outlives a 50 ms deadline by far.
	const slow = `MATCH (n:G) RETURN n.i % 10 AS k, collect(reduce(s = 0, x IN range(1, 100) | s + x)) AS c`
	for _, opts := range []Options{{}, {Parallelism: 4}} {
		g := Wrap(governedStore(), opts)
		baseline := exec.BatchesOutstanding()
		start := time.Now()
		_, err := g.QueryContext(context.Background(), slow, nil, QueryOptions{Timeout: 50 * time.Millisecond})
		var canceled *QueryCanceledError
		if !errors.As(err, &canceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("workers=%d: err = %v, want a deadline cancellation", opts.Parallelism, err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Errorf("workers=%d: the deadline took %v to stop the fold", opts.Parallelism, elapsed)
		}
		assertHygiene(t, g, baseline)
	}
}
