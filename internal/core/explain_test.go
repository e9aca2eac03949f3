package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

// explainGraph is the fixed dataset behind the golden EXPLAIN tests: 10
// Company nodes (cid 0..9), 100 Person nodes (age 0..99, name p00..p99, one
// WORKS_AT relationship each), indexes on (Person, age) and (Person, name).
func explainGraph() *graph.Graph {
	g := graph.New()
	companies := make([]*graph.Node, 10)
	for i := range companies {
		companies[i] = g.CreateNode([]string{"Company"}, map[string]value.Value{"cid": value.NewInt(int64(i))})
	}
	for i := 0; i < 100; i++ {
		p := g.CreateNode([]string{"Person"}, map[string]value.Value{
			"age":  value.NewInt(int64(i)),
			"name": value.NewString(fmt.Sprintf("p%02d", i)),
		})
		if _, err := g.CreateRelationship(p, companies[i%10], "WORKS_AT", nil); err != nil {
			panic(err)
		}
	}
	g.CreateIndex("Person", "age")
	g.CreateIndex("Person", "name")
	return g
}

// TestGoldenExplainPlans pins the exact EXPLAIN output — operator shape,
// access-path choice and the cost model's estimated rows/cost per operator —
// for the representative query shapes of the cost-based planner: range,
// prefix, IN and equality seeks, label-in-WHERE selection, residual filters,
// seek-vs-scan choice with and without an index, expansion direction, and
// ExpandInto. A diff here means the planner changed its mind; update the
// golden only after confirming the new plan is intentional.
func TestGoldenExplainPlans(t *testing.T) {
	e := NewEngine(explainGraph(), Options{})
	cases := []struct {
		query string
		want  string
	}{
		{
			query: "MATCH (n:Person) WHERE n.age > 90 RETURN n",
			want: `+ SelectColumns(n) [rows~25 cost~75]
  + Project(n AS n) [rows~25 cost~50]
    + NodeIndexRangeSeek(n:Person {age > 90}) [rows~25 cost~25]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexRangeSeek(n:Person {age > 90}))
vectorized: eligible (batched NodeIndexRangeSeek(n:Person {age > 90}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.age > 90 AND n.age <= 95 RETURN count(n) AS c",
			want: `+ SelectColumns(c) [rows~1.0 cost~22]
  + Project(  agg#1 AS c) [rows~1.0 cost~21]
    + Aggregate(  agg#1: count(n)) [rows~1.0 cost~20]
      + NodeIndexRangeSeek(n:Person {age > 90, age <= 95}) [rows~10 cost~10]
        + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexRangeSeek(n:Person {age > 90, age <= 95}), partial aggregation)
vectorized: eligible (batched NodeIndexRangeSeek(n:Person {age > 90, age <= 95}) -> aggregate; Aggregate ends the batched prefix)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.name STARTS WITH 'p1' RETURN n",
			want: `+ SelectColumns(n) [rows~5.0 cost~15]
  + Project(n AS n) [rows~5.0 cost~10]
    + NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'}) [rows~5.0 cost~5.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'}))
vectorized: eligible (batched NodeIndexPrefixSeek(n:Person {name STARTS WITH 'p1'}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.age IN [1, 2, 3] RETURN n",
			want: `+ SelectColumns(n) [rows~3.0 cost~9.0]
  + Project(n AS n) [rows~3.0 cost~6.0]
    + NodeIndexSeek(n:Person {age IN [1, 2, 3]}) [rows~3.0 cost~3.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexSeek(n:Person {age IN [1, 2, 3]}))
vectorized: eligible (batched NodeIndexSeek(n:Person {age IN [1, 2, 3]}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person {age: 30}) RETURN n",
			want: `+ SelectColumns(n) [rows~1.0 cost~3.0]
  + Project(n AS n) [rows~1.0 cost~2.0]
    + NodeIndexSeek(n:Person {age = 30}) [rows~1.0 cost~1.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexSeek(n:Person {age = 30}))
vectorized: eligible (batched NodeIndexSeek(n:Person {age = 30}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) WHERE n.age > 90 AND n.name <> 'p95' RETURN n",
			want: `+ SelectColumns(n) [rows~12 cost~75]
  + Project(n AS n) [rows~12 cost~62]
    + Filter(n.name <> 'p95') [rows~12 cost~50]
      + NodeIndexRangeSeek(n:Person {age > 90}) [rows~25 cost~25]
        + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexRangeSeek(n:Person {age > 90}))
vectorized: eligible (batched NodeIndexRangeSeek(n:Person {age > 90}) -> filter -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n) WHERE n:Person AND n.age = 5 RETURN n",
			want: `+ SelectColumns(n) [rows~1.0 cost~3.0]
  + Project(n AS n) [rows~1.0 cost~2.0]
    + NodeIndexSeek(n:Person {age = 5}) [rows~1.0 cost~1.0]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeIndexSeek(n:Person {age = 5}))
vectorized: eligible (batched NodeIndexSeek(n:Person {age = 5}) -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (c:Company) WHERE c.cid > 3 RETURN c",
			want: `+ SelectColumns(c) [rows~5.0 cost~30]
  + Project(c AS c) [rows~5.0 cost~25]
    + Filter(c.cid > 3) [rows~5.0 cost~20]
      + NodeByLabelScan(c:Company) [rows~10 cost~10]
        + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(c:Company))
vectorized: eligible (batched NodeByLabelScan(c:Company) -> filter -> project -> select)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN c.cid AS cid, count(p) AS n",
			want: `+ SelectColumns(cid, n) [rows~1.0 cost~35]
  + Project(cid AS cid,   agg#1 AS n) [rows~1.0 cost~34]
    + Aggregate(cid,   agg#1: count(p)) [rows~1.0 cost~33]
      + Filter(p:Person) [rows~4.5 cost~28]
        + Expand((c)<--[:WORKS_AT](p)) [rows~9.1 cost~19]
          + NodeByLabelScan(c:Company) [rows~10 cost~10]
            + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(c:Company), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(c:Company) -> expand -> filter -> aggregate; Aggregate ends the batched prefix)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (a:Person {age: 1}) MATCH (b:Person {age: 11}) MATCH (a)-[:WORKS_AT]->(c)<-[:WORKS_AT]-(b) RETURN count(c) AS c",
			want: `+ SelectColumns(c) [rows~1.0 cost~5.8]
  + Project(  agg#1 AS c) [rows~1.0 cost~4.8]
    + Aggregate(  agg#1: count(c)) [rows~1.0 cost~3.8]
      + ExpandInto((c)<--[:WORKS_AT](b)) [rows~0.0 cost~3.8]
        + Expand((a)-->[  rel#1:WORKS_AT](c)) [rows~0.9 cost~2.9]
          + NodeIndexSeek(b:Person {age = 11}) [rows~1.0 cost~2.0]
            + NodeIndexSeek(a:Person {age = 1}) [rows~1.0 cost~1.0]
              + Start [rows~1.0 cost~0.0]
parallel: serial (no per-row work above the scan)
vectorized: row-at-a-time (NodeIndexSeek(b:Person {age = 11}) keeps the row path)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN count(DISTINCT p.age) AS ages",
			want: `+ SelectColumns(ages) [rows~1.0 cost~35]
  + Project(  agg#1 AS ages) [rows~1.0 cost~34]
    + Aggregate(  agg#1: count(DISTINCT p.age)) [rows~1.0 cost~33]
      + Filter(p:Person) [rows~4.5 cost~28]
        + Expand((c)<--[:WORKS_AT](p)) [rows~9.1 cost~19]
          + NodeByLabelScan(c:Company) [rows~10 cost~10]
            + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(c:Company), partial aggregation)
vectorized: eligible (batched NodeByLabelScan(c:Company) -> expand -> filter -> aggregate; Aggregate ends the batched prefix)
runtime parallelism: 1
`,
		},
		{
			query: "MATCH (n:Person) RETURN n",
			want: `+ SelectColumns(n) [rows~100 cost~300]
  + Project(n AS n) [rows~100 cost~200]
    + NodeByLabelScan(n:Person) [rows~100 cost~100]
      + Start [rows~1.0 cost~0.0]
parallel: eligible (morsel-driven NodeByLabelScan(n:Person))
vectorized: eligible (batched NodeByLabelScan(n:Person) -> project -> select)
runtime parallelism: 1
`,
		},
	}
	for _, c := range cases {
		got, err := e.Explain(c.query)
		if err != nil {
			t.Fatalf("explain %q: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("EXPLAIN drifted for %q\ngot:\n%s\nwant:\n%s", c.query, got, c.want)
		}
	}
}

// Estimates must be recomputed when the data changes: after the graph grows,
// a recompiled plan reflects the new statistics (the plan cache invalidates
// on the mutation epoch).
func TestExplainEstimatesTrackMutations(t *testing.T) {
	g := graph.New()
	e := NewEngine(g, Options{})
	g.CreateIndex("P", "k")
	run(t, e, "CREATE (:P {k: 1})")
	before, err := e.Explain("MATCH (n:P) RETURN n")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 99; i++ {
		run(t, e, "CREATE (:P {k: 2})")
	}
	after, err := e.Explain("MATCH (n:P) RETURN n")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Errorf("estimates should move with the data:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
