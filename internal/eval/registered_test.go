package eval_test

import (
	"slices"
	"strings"
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

// call renders name(x, x, ...) with n arguments.
func call(name string, n int) string {
	return name + "(" + strings.TrimSuffix(strings.Repeat("x, ", n), ", ") + ")"
}

// TestEveryRegisteredFunctionPassesTheCheck calls each registered scalar
// function and aggregate by name with the fewest and the most arguments its
// registered arity allows: none may be mistaken for an unknown function or
// rejected for its argument count. One argument fewer, or one more, must be
// rejected before execution.
func TestEveryRegisteredFunctionPassesTheCheck(t *testing.T) {
	names := eval.RegisteredNames()
	for _, want := range []string{"size", "substring", "count", "date", "datetime", "duration", "durationbetween"} {
		if !slices.Contains(names, want) {
			t.Fatalf("%s is not registered; registered: %v", want, names)
		}
	}
	for _, name := range names {
		arity, ok := eval.FunctionArity(name)
		if !ok {
			t.Fatalf("%s has no arity", name)
		}
		most := arity.Max
		if most < 0 {
			most = arity.Min + 2
		}
		for _, n := range []int{arity.Min, most} {
			if err := checkQuery(t, "UNWIND [] AS x RETURN "+call(name, n)+" AS r"); err != nil {
				t.Errorf("%s with %d argument(s): %v", name, n, err)
			}
		}
		var wrong []int
		if arity.Min > 0 {
			wrong = append(wrong, arity.Min-1)
		}
		if arity.Max >= 0 {
			wrong = append(wrong, arity.Max+1)
		}
		for _, n := range wrong {
			src := "UNWIND [] AS x RETURN " + call(name, n) + " AS r"
			q, err := parser.Parse(src)
			if err != nil {
				continue // the grammar itself rejects it, as for exists()
			}
			if err := semantic.Check(q); err == nil || !strings.Contains(err.Error(), "expects") {
				t.Errorf("%s with %d argument(s): check said %v, want an arity error", name, n, err)
			}
		}
	}
}

// TestWrongArityRejected checks every expression position the semantic
// check reaches: a call with the wrong number of arguments fails the check
// even where no row would ever evaluate it.
func TestWrongArityRejected(t *testing.T) {
	for _, src := range []string{
		"UNWIND [] AS x RETURN size(x, 1)",
		"UNWIND [] AS x RETURN count(x, 1)",
		"RETURN coalesce() AS c",
		"MATCH (n) WHERE toUpper() = 'A' RETURN n",
		"MATCH (n) RETURN n ORDER BY size(n.x, 2)",
		"MATCH (n) RETURN n LIMIT abs()",
		"MATCH (n {x: range(1)}) RETURN n",
		"MERGE (n:N) ON CREATE SET n.x = left('a')",
		"RETURN [x IN [1] | substring('a')] AS l",
		"MATCH (n) WHERE (n)-[{x: date()}]->() RETURN n",
	} {
		err := checkQuery(t, src)
		if err == nil || !strings.Contains(err.Error(), "expects") {
			t.Errorf("%s: check said %v, want an arity error", src, err)
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
