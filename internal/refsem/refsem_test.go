package refsem

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/result"
	"repro/internal/value"
)

// mustEval parses and evaluates a query under the reference semantics.
func mustEval(t *testing.T, g *graph.Graph, q string) *result.Table {
	t.Helper()
	parsed, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	tbl, err := Evaluate(parsed, g, nil)
	if err != nil {
		t.Fatalf("evaluate %q: %v", q, err)
	}
	return tbl
}

func TestReferenceSemanticsSection3(t *testing.T) {
	g, _ := datasets.Citations()
	tbl := mustEval(t, g, `
		MATCH (r:Researcher)
		OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student)
		WITH r, count(s) AS studentsSupervised
		MATCH (r)-[:AUTHORS]->(p1:Publication)
		OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication)
		RETURN r.name, studentsSupervised, count(DISTINCT p2) AS citedCount`)
	if tbl.Len() != 2 {
		t.Fatalf("expected 2 rows, got %d:\n%s", tbl.Len(), tbl.String())
	}
	tbl.SortByAllColumns()
	rows := tbl.Rows()
	if rows[0][0].String() != "'Elin'" || value.Compare(rows[0][1], value.NewInt(2)) != 0 || value.Compare(rows[0][2], value.NewInt(1)) != 0 {
		t.Errorf("Elin row wrong: %v", rows[0])
	}
	if rows[1][0].String() != "'Nils'" || value.Compare(rows[1][1], value.NewInt(0)) != 0 || value.Compare(rows[1][2], value.NewInt(3)) != 0 {
		t.Errorf("Nils row wrong: %v", rows[1])
	}
}

func TestReferenceSemanticsExample46(t *testing.T) {
	g, _ := datasets.Teachers()
	tbl := mustEval(t, g, "MATCH (x) WHERE x.name IN ['n1', 'n3'] MATCH (x)-[:KNOWS*]->(y) RETURN x.name AS x, y.name AS y")
	if tbl.Len() != 4 {
		t.Fatalf("Example 4.6 should yield 4 rows, got %d:\n%s", tbl.Len(), tbl.String())
	}
}

func TestReferenceSemanticsExample45BagSemantics(t *testing.T) {
	g, _ := datasets.Teachers()
	tbl := mustEval(t, g, "MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) RETURN x.name AS x, y.name AS y")
	if tbl.Len() != 3 {
		t.Fatalf("Example 4.5 should yield 3 rows (two copies of n1/n4), got %d:\n%s", tbl.Len(), tbl.String())
	}
	copies := 0
	for i := range tbl.Records {
		row := tbl.Row(i)
		if row[0].String() == "'n1'" && row[1].String() == "'n4'" {
			copies++
		}
	}
	if copies != 2 {
		t.Errorf("expected two copies of (n1, n4), got %d", copies)
	}
}

func TestReferenceSemanticsSelfLoop(t *testing.T) {
	g := datasets.SelfLoop()
	tbl := mustEval(t, g, "MATCH (x)-[*0..]->(x) RETURN count(*) AS matches")
	if tbl.Len() != 1 || value.Compare(tbl.Rows()[0][0], value.NewInt(2)) != 0 {
		t.Fatalf("self-loop should produce exactly 2 matches, got %s", tbl.String())
	}
}

func TestReferenceSemanticsRejectsUpdates(t *testing.T) {
	g := datasets.SelfLoop()
	parsed, err := parser.Parse("CREATE (n) RETURN n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(parsed, g, nil); err == nil {
		t.Fatalf("the reference semantics covers only the read-only core")
	}
}

// differentialCorpus is the query corpus compared between the optimised
// engine and the literal Figure 6/7 semantics (experiments E18/E19).
var differentialCorpus = []string{
	// Clause composition (Figure 6).
	"MATCH (n) RETURN n",
	"MATCH (n:Teacher) RETURN n.name AS name",
	"MATCH (n:Teacher) RETURN n.name AS name UNION ALL MATCH (n:Student) RETURN n.name AS name",
	"MATCH (n) RETURN labels(n) AS l UNION MATCH (n) RETURN labels(n) AS l",
	"RETURN 1 + 1 AS two, 'a' AS letter",
	// MATCH / OPTIONAL MATCH / WHERE (Figure 7).
	"MATCH (a)-[:KNOWS]->(b) RETURN a.name AS a, b.name AS b",
	"MATCH (a)-[r:KNOWS]->(b) WHERE r.since > 1990 RETURN a.name AS a, b.name AS b",
	"MATCH (a)<-[:KNOWS]-(b) RETURN a.name AS a, b.name AS b",
	"MATCH (a)--(b) RETURN a.name AS a, b.name AS b",
	"MATCH (a:Teacher)-[:KNOWS*1..2]->(b) RETURN a.name AS a, b.name AS b",
	"MATCH (a:Teacher)-[:KNOWS*2]->(b) RETURN a.name AS a, b.name AS b",
	"MATCH (x:Teacher)-[:KNOWS*1..2]->()-[:KNOWS*1..2]->(y:Teacher) RETURN x.name AS x, y.name AS y",
	"MATCH (a {name: 'n2'}) OPTIONAL MATCH (a)-[:TEACHES]->(b) RETURN a.name AS a, b AS b",
	"MATCH (a) OPTIONAL MATCH (a)-[:KNOWS]->(b:Teacher) RETURN a.name AS a, b.name AS b",
	"MATCH (a)-[r1:KNOWS]->(b), (c)-[r2:KNOWS]->(d) RETURN a.name AS a, b.name AS b, c.name AS c, d.name AS d",
	"MATCH (a) WHERE (a)-[:KNOWS]->(:Teacher) RETURN a.name AS a",
	// WITH / UNWIND / aggregation / DISTINCT / ORDER BY / SKIP / LIMIT.
	"MATCH (a)-[:KNOWS]->(b) WITH a, count(b) AS n RETURN a.name AS a, n",
	"MATCH (a) WITH a WHERE a.name STARTS WITH 'n' RETURN count(*) AS c",
	"UNWIND [1, 2, 2, 3] AS x RETURN DISTINCT x",
	"UNWIND [1, 2, 3, 4] AS x WITH x WHERE x % 2 = 0 RETURN collect(x) AS evens",
	"MATCH (a) RETURN a.name AS name ORDER BY name DESC SKIP 1 LIMIT 2",
	"MATCH (a) RETURN count(*) AS c, min(a.name) AS lo, max(a.name) AS hi",
	"MATCH (a:Teacher) OPTIONAL MATCH (a)-[:KNOWS]->(b) RETURN a.name AS a, count(b) AS friends",
	"MATCH (a) RETURN CASE WHEN a:Teacher THEN 'T' ELSE 'S' END AS kind, count(*) AS c",
	// Expression fixes (PR 3): reduce, string/number concatenation, datetime
	// offsets — the oracle shares the expression evaluator, so these assert
	// that the engine's planning/rewriting layers do not diverge from it.
	"UNWIND [1, 2, 3] AS x WITH collect(x) AS xs RETURN reduce(acc = 0, v IN xs | acc + v) AS sum",
	"MATCH (a) RETURN reduce(s = '', c IN [a.name, '!'] | s + c) AS tagged",
	"MATCH (a) RETURN a.name + 1 AS suffixed, 0 + a.name AS prefixed",
	"RETURN datetime('2020-01-01T00:00:00Z') = datetime('2019-12-31T19:00:00-05:00') AS same",
}

// TestDifferentialEngineVsReference runs the corpus through both the
// optimised engine and the reference semantics and requires bag-equal
// results on every graph (E18/E19 in DESIGN.md).
func TestDifferentialEngineVsReference(t *testing.T) {
	graphs := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"teachers", func() *graph.Graph { g, _ := datasets.Teachers(); return g }},
		{"citations", func() *graph.Graph { g, _ := datasets.Citations(); return g }},
		{"social", func() *graph.Graph {
			return datasets.SocialNetwork(datasets.SocialConfig{People: 12, FriendsEach: 2, Seed: 9})
		}},
	}
	for _, gc := range graphs {
		t.Run(gc.name, func(t *testing.T) {
			g := gc.build()
			e := core.NewEngine(g, core.Options{})
			for _, q := range differentialCorpus {
				engineRes, err := e.Run(q, nil)
				if err != nil {
					t.Fatalf("engine failed on %q: %v", q, err)
				}
				parsed, err := parser.Parse(q)
				if err != nil {
					t.Fatalf("parse failed on %q: %v", q, err)
				}
				refRes, err := Evaluate(parsed, g, nil)
				if err != nil {
					t.Fatalf("reference semantics failed on %q: %v", q, err)
				}
				// Column order is defined by the projection in both
				// implementations; align the reference table's columns with
				// the engine's before comparison to tolerate naming of
				// unaliased items.
				if len(refRes.Columns) != len(engineRes.Table.Columns) {
					t.Fatalf("column count mismatch on %q: %v vs %v", q, refRes.Columns, engineRes.Table.Columns)
				}
				refRes.Columns = engineRes.Table.Columns
				if !result.EqualAsBags(engineRes.Table, refRes) {
					t.Errorf("engine and reference semantics disagree on %q\nengine:\n%s\nreference:\n%s\nplan:\n%s",
						q, engineRes.Table.String(), refRes.String(), engineRes.Plan())
				}
			}
		})
	}
}
