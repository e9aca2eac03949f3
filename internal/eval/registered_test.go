package eval_test

import (
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/semantic"
	_ "repro/internal/temporal" // registers the temporal functions
)

func checkQuery(t *testing.T, src string) error {
	t.Helper()
	q, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return semantic.Check(q)
}

// TestEveryRegisteredFunctionPassesTheCheck calls each registered scalar
// function and aggregate by name: none may be mistaken for an unknown one.
func TestEveryRegisteredFunctionPassesTheCheck(t *testing.T) {
	names := eval.RegisteredNames()
	for _, want := range []string{"size", "substring", "count", "date", "datetime", "duration", "durationbetween"} {
		if !slices.Contains(names, want) {
			t.Fatalf("%s is not registered; registered: %v", want, names)
		}
	}
	for _, name := range names {
		if err := checkQuery(t, "UNWIND [] AS x RETURN "+name+"(x) AS r"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUnknownFunctionRejected checks every expression position the semantic
// check reaches.
func TestUnknownFunctionRejected(t *testing.T) {
	for _, src := range []string{
		"UNWIND [] AS x RETURN foo(x)",
		"MATCH (n) WHERE bar(n.x) RETURN n",
		"MATCH (n) RETURN n ORDER BY foo(n.x)",
		"MATCH (n) RETURN n LIMIT foo(1)",
		"MATCH (n {x: foo(1)}) RETURN n",
		"MATCH (n)-[r {x: foo(1)}]->(m) RETURN r",
		"MERGE (n:N) ON CREATE SET n.x = foo(1)",
		"MATCH (n) SET n.x = size(foo(n))",
		"RETURN [x IN [1] | foo(x)] AS l",
		"MATCH (n) WHERE (n)-[{x: foo(1)}]->() RETURN n",
	} {
		if err := checkQuery(t, src); err == nil {
			t.Errorf("%s: accepted an unknown function", src)
		}
	}
}
