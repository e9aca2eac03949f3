package cypher

// Tests for morsel-driven parallel read execution: determinism against the
// serial engine (byte-identical ORDER BY output, identical aggregation
// results across worker counts), the documented fallback conditions, and a
// race hammer that mixes parallel readers with writers (meaningful under
// `go test -race`).

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/value"
)

// socialPair builds two engines over identical social-network stores: one
// serial, one parallel with a small morsel size so even modest graphs split
// into many morsels.
func socialPair(people, friends, parallelism int) (serial, parallel *Graph) {
	build := func(opts Options) *Graph {
		return Wrap(datasets.SocialNetwork(datasets.SocialConfig{People: people, FriendsEach: friends, Seed: 7}), opts)
	}
	return build(Options{}), build(Options{Parallelism: parallelism, MorselSize: 128})
}

func TestParallelOrderByByteIdentical(t *testing.T) {
	serial, parallel := socialPair(3000, 4, 4)
	queries := []string{
		// Heavy ties on age: stable-sort tie-breaking must match serial.
		"MATCH (p:Person) RETURN p.age AS age, p.name AS name ORDER BY age",
		"MATCH (p:Person) WHERE p.age > 30 RETURN p.name AS n ORDER BY n DESC",
		"MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name AS x, b.name AS y ORDER BY x LIMIT 50",
		"MATCH (p:Person) RETURN DISTINCT p.age AS age ORDER BY age",
	}
	for _, q := range queries {
		rs := serial.MustRun(q, nil)
		rp := parallel.MustRun(q, nil)
		if rs.Parallelism() != 1 {
			t.Errorf("serial engine reported parallelism %d for %s", rs.Parallelism(), q)
		}
		if rp.Parallelism() < 2 {
			t.Errorf("parallel engine stayed serial for %s", q)
		}
		if rs.String() != rp.String() {
			t.Errorf("parallel ORDER BY output differs from serial for %s\nserial:\n%s\nparallel:\n%s",
				q, rs.String(), rp.String())
		}
	}
}

// TestParallelMorselOrderByteIdentical pins the morsel-order merge for plans
// without ORDER BY: the rows of a parallel run are the serial rows in the
// serial order, on every run. GOMAXPROCS is raised for the test so workers
// really interleave even when the suite runs on one processor.
func TestParallelMorselOrderByteIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	queries := []string{
		"MATCH (p:Person) WHERE p.age >= 40 RETURN p.name AS n, p.age AS age",
		"MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name AS a, b.name AS b",
	}
	for _, workers := range []int{4, 8} {
		serial, parallel := socialPair(3000, 4, workers)
		for _, q := range queries {
			want := serial.MustRun(q, nil).String()
			for run := 0; run < 20; run++ {
				rp := parallel.MustRun(q, nil)
				if rp.Parallelism() < 2 {
					t.Fatalf("expected parallel execution for %s", q)
				}
				if rp.String() != want {
					t.Fatalf("parallelism=%d run %d: output differs from serial for %s", workers, run, q)
				}
			}
		}
	}
}

func TestParallelAggregationAcrossWorkerCounts(t *testing.T) {
	baseline, _ := socialPair(3000, 4, 2)
	queries := []string{
		"MATCH (p:Person) RETURN count(*) AS c",
		"MATCH (p:Person) RETURN p.age AS age, count(*) AS c",
		"MATCH (p:Person) RETURN p.age AS age, collect(p.name) AS names",
		"MATCH (p:Person) RETURN sum(p.age) AS total, min(p.age) AS lo, max(p.age) AS hi, avg(p.age) AS mean",
		"MATCH (a:Person)-[:KNOWS]->(b) RETURN a.age AS age, count(DISTINCT b.age) AS c",
		"MATCH (a:Person)-[:KNOWS*1..2]->(b) RETURN count(*) AS paths",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = baseline.MustRun(q, nil).String()
	}
	for _, workers := range []int{1, 4, 8} {
		g := Wrap(datasets.SocialNetwork(datasets.SocialConfig{People: 3000, FriendsEach: 4, Seed: 7}),
			Options{Parallelism: workers, MorselSize: 128})
		for i, q := range queries {
			res := g.MustRun(q, nil)
			if workers > 1 && res.Parallelism() < 2 {
				t.Errorf("parallelism=%d stayed serial for %s", workers, q)
			}
			if res.String() != want[i] {
				t.Errorf("parallelism=%d changed the result of %s\nwant:\n%s\ngot:\n%s",
					workers, q, want[i], res.String())
			}
		}
	}
}

// TestParallelAggregateInSerialTailDeterministic covers an aggregate that
// the analysis leaves in the serial tail (a second MATCH ends the streaming
// segment before the Aggregate is reached): collect() order and first-seen
// group order are input-order-sensitive, so the merge must be
// order-preserving for repeated runs to match serial execution.
func TestParallelAggregateInSerialTailDeterministic(t *testing.T) {
	build := func(par int) *Graph {
		g := NewWithOptions(Options{Parallelism: par, MorselSize: 8})
		for i := 0; i < 200; i++ {
			g.MustRun("CREATE (:Person {name: $n})", map[string]any{"n": fmt.Sprintf("p%03d", i)})
		}
		g.MustRun("CREATE (:Team {name: 't'})", nil)
		return g
	}
	serial, parallel := build(1), build(4)
	q := "MATCH (p:Person) WHERE p.name <> '' MATCH (t:Team) RETURN t.name AS team, collect(p.name) AS names"
	want := serial.MustRun(q, nil).String()
	for i := 0; i < 20; i++ {
		got := parallel.MustRun(q, nil)
		if got.Parallelism() < 2 {
			t.Fatalf("expected parallel execution, got %d workers", got.Parallelism())
		}
		if got.String() != want {
			t.Fatalf("run %d: collect() over the merged stream diverged from serial\nwant:\n%s\ngot:\n%s",
				i, want, got.String())
		}
	}
}

func TestParallelFallbackConditions(t *testing.T) {
	g := NewWithOptions(Options{Parallelism: 8, MorselSize: 4})
	for i := 0; i < 200; i++ {
		g.MustRun("CREATE (:Person {name: $n, age: $a})", map[string]any{"n": fmt.Sprintf("p%d", i), "a": i % 10})
	}
	cases := []struct {
		query  string
		reason string // substring expected in the EXPLAIN fallback note
	}{
		{"MATCH (p:Person) RETURN p.name AS n LIMIT 3", "early exit"},
		{"MATCH (p:Person) RETURN p.name AS n UNION MATCH (p:Person) RETURN p.name AS n", "UNION"},
		{"CREATE (:Audit {at: 1})", "updating"},
	}
	for _, c := range cases {
		res := g.MustRun(c.query, nil)
		if res.Parallelism() != 1 {
			t.Errorf("%s should fall back to serial, used %d workers", c.query, res.Parallelism())
		}
		pl, err := g.Explain(c.query)
		if err != nil {
			t.Fatalf("explain %s: %v", c.query, err)
		}
		if !strings.Contains(pl, "parallel: serial") || !strings.Contains(pl, c.reason) {
			t.Errorf("EXPLAIN of %s should report a serial fallback mentioning %q:\n%s", c.query, c.reason, pl)
		}
		if !strings.Contains(pl, "runtime parallelism: 1") {
			t.Errorf("EXPLAIN of %s should choose runtime parallelism 1:\n%s", c.query, pl)
		}
	}

	// LIMIT above a Sort/Aggregate barrier cannot exit early, so it stays
	// parallel-eligible.
	res := g.MustRun("MATCH (p:Person) RETURN p.name AS n ORDER BY n LIMIT 3", nil)
	if res.Parallelism() < 2 {
		t.Errorf("LIMIT above ORDER BY should stay parallel, used %d workers", res.Parallelism())
	}

	// A scan that fits in one morsel is not worth a worker pool.
	small := NewWithOptions(Options{Parallelism: 8})
	small.MustRun("CREATE (:Person {name: 'only'})", nil)
	if got := small.MustRun("MATCH (p:Person) RETURN p.name AS n, p.name AS m", nil); got.Parallelism() != 1 {
		t.Errorf("single-morsel scan should run serially, used %d workers", got.Parallelism())
	}
}

func TestParallelExplainEligible(t *testing.T) {
	_, parallel := socialPair(1000, 2, 4)
	pl, err := parallel.Explain("MATCH (p:Person) RETURN p.age AS age, count(*) AS c")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parallel: eligible", "partial aggregation", "runtime parallelism: 4"} {
		if !strings.Contains(pl, want) {
			t.Errorf("EXPLAIN should contain %q:\n%s", want, pl)
		}
	}
}

// TestParallelReadersWithWriters hammers one engine with parallel read
// queries while writers mutate the graph. Readers hold the engine's shared
// lock for their whole morsel-parallel run, so every worker must see a
// stable snapshot; the race detector verifies there is no unsynchronised
// access between morsel workers and writers.
func TestParallelReadersWithWriters(t *testing.T) {
	g := Wrap(datasets.SocialNetwork(datasets.SocialConfig{People: 2000, FriendsEach: 4, Seed: 3}),
		Options{Parallelism: 4, MorselSize: 64})
	const (
		readers    = 4
		writers    = 2
		iterations = 25
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := []string{
				"MATCH (p:Person) RETURN p.age AS age, count(*) AS c",
				"MATCH (p:Person) WHERE p.age > 30 RETURN p.name AS n ORDER BY n LIMIT 10",
				"MATCH (a:Person)-[:KNOWS]->(b) RETURN count(b) AS c",
			}
			for i := 0; i < iterations; i++ {
				if _, err := g.Run(queries[(r+i)%len(queries)], nil); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				q := fmt.Sprintf("CREATE (:Person {name: 'new-%d-%d', age: %d})", w, i, i%90)
				if _, err := g.Run(q, nil); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	res := g.MustRun("MATCH (p:Person) RETURN count(*) AS c", nil)
	want := int64(2000 + writers*iterations)
	if got := res.Records()[0]["c"]; got != want {
		t.Errorf("node count after hammer = %v, want %d", got, want)
	}
}

// TestMVCCChecksumHammer (PR 6) hammers the MVCC engine with reader
// goroutines computing multi-query checksums while writer goroutines commit
// invariant-preserving mutations. Every write preserves two invariants —
// transfers keep the total balance constant, and :Even nodes are only
// created two at a time — so EVERY committed version satisfies them. A
// reader that tore across versions (saw half a transfer, or one node of a
// pair) would break a checksum; snapshot isolation says each reader
// iteration sees exactly one committed version, so the checksums must hold
// on every single read. Meaningful under `go test -race`: morsel-parallel
// read workers scan pinned versions while writers mutate the primary.
func TestMVCCChecksumHammer(t *testing.T) {
	g := NewWithOptions(Options{Parallelism: 4, MorselSize: 32})
	const accounts = 200
	const startBal = 100
	g.MustRun("UNWIND range(0, $n - 1) AS i CREATE (:Acct {id: i, bal: $b})",
		map[string]any{"n": accounts, "b": startBal})
	const wantTotal = int64(accounts * startBal)

	const (
		readers    = 6
		writers    = 3
		iterations = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	fail := func(format string, a ...any) {
		select {
		case errCh <- fmt.Errorf(format, a...):
		default:
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// The balance checksum: constant under every committed
				// transfer, torn under any partial one.
				res, err := g.Run("MATCH (a:Acct) RETURN sum(a.bal) AS total, count(a) AS n", nil)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				rec := res.Records()[0]
				if rec["total"] != wantTotal || rec["n"] != int64(accounts) {
					fail("reader %d iteration %d: torn read — total=%v n=%v, want total=%d n=%d",
						r, i, rec["total"], rec["n"], wantTotal, accounts)
					return
				}
				// The pair checksum: every committed version has an even
				// number of :Even nodes.
				res, err = g.Run("MATCH (e:Even) RETURN count(e) AS c", nil)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				if c := res.Records()[0]["c"].(int64); c%2 != 0 {
					fail("reader %d iteration %d: saw %d :Even nodes (odd — half a committed pair)", r, i, c)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				var err error
				if w == 0 {
					// Pair creator: both nodes in one query (one version).
					_, err = g.Run("CREATE (:Even) CREATE (:Even)", nil)
				} else {
					// Transfer: move 1 between two accounts in one query.
					from := (w*31 + i*7) % accounts
					to := (from + 1 + i%17) % accounts
					_, err = g.Run(
						"MATCH (a:Acct {id: $from}) MATCH (b:Acct {id: $to}) SET a.bal = a.bal - 1 SET b.bal = b.bal + 1",
						map[string]any{"from": from, "to": to})
				}
				if err != nil {
					fail("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Final state: all transfers committed, total unchanged, all pairs whole.
	res := g.MustRun("MATCH (a:Acct) RETURN sum(a.bal) AS total", nil)
	if got := res.Records()[0]["total"]; got != wantTotal {
		t.Errorf("final total = %v, want %d", got, wantTotal)
	}
	res = g.MustRun("MATCH (e:Even) RETURN count(e) AS c", nil)
	if got := res.Records()[0]["c"]; got != int64(iterations*2) {
		t.Errorf("final :Even count = %v, want %d", got, iterations*2)
	}
	stats := g.MVCCStats()
	if !stats.Enabled || stats.Versions != 2 {
		t.Errorf("hammer should leave MVCC enabled with 2 versions: %+v", stats)
	}
	if stats.ActivePins != 0 {
		t.Errorf("pins leaked after hammer: %+v", stats)
	}
}

// TestParallelSeekLeafByteIdentical (PR 5): index seeks in leaf position are
// partitionable — a range-predicate query over an indexed label must run
// morsel-parallel and produce byte-identical ORDER BY output (and identical
// aggregates) to the serial engine.
func TestParallelSeekLeafByteIdentical(t *testing.T) {
	build := func(opts Options) *Graph {
		g := graph.New()
		for i := 0; i < 3000; i++ {
			g.CreateNode([]string{"Person"}, map[string]value.Value{
				"age":  value.NewInt(int64(i % 100)),
				"name": value.NewString(fmt.Sprintf("p%04d", i)),
			})
		}
		g.CreateIndex("Person", "age")
		g.CreateIndex("Person", "name")
		return Wrap(g, opts)
	}
	serial := build(Options{})
	parallel := build(Options{Parallelism: 4, MorselSize: 128})
	queries := []string{
		"MATCH (p:Person) WHERE p.age > 50 RETURN p.name AS n ORDER BY n",
		"MATCH (p:Person) WHERE p.age > 50 AND p.age <= 90 RETURN count(p) AS c, min(p.name) AS lo",
		"MATCH (p:Person) WHERE p.name STARTS WITH 'p1' RETURN p.name AS n ORDER BY n DESC",
		"MATCH (p:Person) WHERE p.age IN [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] RETURN p.age AS age, count(*) AS c",
	}
	for _, q := range queries {
		rs := serial.MustRun(q, nil)
		rp := parallel.MustRun(q, nil)
		if !strings.Contains(rp.Plan(), "Seek") {
			t.Fatalf("query should plan a seek: %s\n%s", q, rp.Plan())
		}
		if rp.Parallelism() < 2 {
			t.Errorf("seek-leaf query stayed serial: %s\n%s", q, rp.Plan())
		}
		if rs.String() != rp.String() {
			t.Errorf("parallel seek output differs from serial for %s\nserial:\n%s\nparallel:\n%s",
				q, rs.String(), rp.String())
		}
	}
	// A seek too small to split stays serial (single morsel).
	rp := parallel.MustRun("MATCH (p:Person) WHERE p.age = 1 RETURN count(p) AS c", nil)
	if rp.Parallelism() != 1 {
		t.Errorf("single-morsel seek should stay serial, used %d workers", rp.Parallelism())
	}
}
