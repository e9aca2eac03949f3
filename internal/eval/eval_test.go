package eval

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/result"
	"repro/internal/value"
)

// evalStr parses and evaluates an expression under the given record.
func evalStr(t *testing.T, src string, rec result.Record, params map[string]value.Value) (value.Value, error) {
	t.Helper()
	e, err := parser.ParseExpression(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	ctx := &Context{Params: params}
	return ctx.Evaluate(e, rec)
}

func mustEval(t *testing.T, src string, rec result.Record) value.Value {
	t.Helper()
	v, err := evalStr(t, src, rec, nil)
	if err != nil {
		t.Fatalf("evaluate %q: %v", src, err)
	}
	return v
}

func TestEvaluateLiteralsAndArithmetic(t *testing.T) {
	rec := result.NewRecord()
	cases := map[string]value.Value{
		"1 + 2 * 3":              value.NewInt(7),
		"(1 + 2) * 3":            value.NewInt(9),
		"10 / 4":                 value.NewInt(2),
		"10.0 / 4":               value.NewFloat(2.5),
		"7 % 3":                  value.NewInt(1),
		"2 ^ 10":                 value.NewFloat(1024),
		"-5 + 2":                 value.NewInt(-3),
		"'a' + 'b'":              value.NewString("ab"),
		"[1] + [2, 3]":           value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3)),
		"1 = 1.0":                value.NewBool(true),
		"1 < 2":                  value.NewBool(true),
		"2 <= 1":                 value.NewBool(false),
		"'abc' STARTS WITH 'ab'": value.NewBool(true),
		"'abc' ENDS WITH 'bc'":   value.NewBool(true),
		"'abc' CONTAINS 'd'":     value.NewBool(false),
		"'abc' =~ 'a.c'":         value.NewBool(true),
		"2 IN [1, 2, 3]":         value.NewBool(true),
		"5 IN [1, 2, 3]":         value.NewBool(false),
		"true AND false":         value.NewBool(false),
		"true OR false":          value.NewBool(true),
		"true XOR true":          value.NewBool(false),
		"NOT false":              value.NewBool(true),
		"null IS NULL":           value.NewBool(true),
		"1 IS NOT NULL":          value.NewBool(true),
	}
	for src, want := range cases {
		got := mustEval(t, src, rec)
		if value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvaluateNullPropagation(t *testing.T) {
	rec := result.FromMap(map[string]value.Value{"x": value.Null()})
	nullCases := []string{
		"x + 1", "1 + x", "x = 1", "x < 1", "x STARTS WITH 'a'", "x IN [1, 2]",
		"1 IN [x]", "x[0]", "x[0..1]", "x.prop", "NOT x", "-x",
		"x AND true", "x OR false", "x XOR true",
	}
	for _, src := range nullCases {
		got := mustEval(t, src, rec)
		if !value.IsNull(got) {
			t.Errorf("%s should be null, got %v", src, got)
		}
	}
	// Three-valued logic short circuits.
	if got := mustEval(t, "x AND false", rec); value.Compare(got, value.NewBool(false)) != 0 {
		t.Errorf("null AND false should be false")
	}
	if got := mustEval(t, "x OR true", rec); value.Compare(got, value.NewBool(true)) != 0 {
		t.Errorf("null OR true should be true")
	}
	// IN with a null element is unknown unless a match is found.
	if got := mustEval(t, "1 IN [null, 2]", result.NewRecord()); !value.IsNull(got) {
		t.Errorf("1 IN [null, 2] should be null, got %v", got)
	}
	if got := mustEval(t, "2 IN [null, 2]", result.NewRecord()); value.Compare(got, value.NewBool(true)) != 0 {
		t.Errorf("2 IN [null, 2] should be true")
	}
}

func TestEvaluateCollections(t *testing.T) {
	rec := result.FromMap(map[string]value.Value{"xs": value.NewList(value.NewInt(10), value.NewInt(20), value.NewInt(30))})
	cases := map[string]value.Value{
		"xs[0]":                           value.NewInt(10),
		"xs[-1]":                          value.NewInt(30),
		"xs[5]":                           value.Null(),
		"xs[0..2]":                        value.NewList(value.NewInt(10), value.NewInt(20)),
		"xs[..2]":                         value.NewList(value.NewInt(10), value.NewInt(20)),
		"xs[1..]":                         value.NewList(value.NewInt(20), value.NewInt(30)),
		"xs[-2..]":                        value.NewList(value.NewInt(20), value.NewInt(30)),
		"xs[2..1]":                        value.NewList(),
		"{a: 1}.a":                        value.NewInt(1),
		"{a: 1}.b":                        value.Null(),
		"{a: 1}['a']":                     value.NewInt(1),
		"[x IN xs WHERE x > 10 | x / 10]": value.NewList(value.NewInt(2), value.NewInt(3)),
		"[x IN xs | x + 1]":               value.NewList(value.NewInt(11), value.NewInt(21), value.NewInt(31)),
		"[x IN xs WHERE x > 100]":         value.NewList(),
		"size(xs)":                        value.NewInt(3),
		"head(xs)":                        value.NewInt(10),
		"last(xs)":                        value.NewInt(30),
		"tail(xs)":                        value.NewList(value.NewInt(20), value.NewInt(30)),
		"reverse(xs)[0]":                  value.NewInt(30),
	}
	for src, want := range cases {
		got := mustEval(t, src, rec)
		if value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvaluateCase(t *testing.T) {
	rec := result.FromMap(map[string]value.Value{"x": value.NewInt(2)})
	cases := map[string]value.Value{
		"CASE WHEN x = 1 THEN 'one' WHEN x = 2 THEN 'two' ELSE 'many' END": value.NewString("two"),
		"CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END":                   value.NewString("two"),
		"CASE x WHEN 9 THEN 'nine' END":                                    value.Null(),
		"CASE WHEN x > 10 THEN 'big' END":                                  value.Null(),
	}
	for src, want := range cases {
		got := mustEval(t, src, rec)
		if value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	rec := result.NewRecord()
	if _, err := evalStr(t, "missing + 1", rec, nil); !errors.Is(err, ErrUnknownVariable) {
		t.Errorf("unknown variable error expected, got %v", err)
	}
	if _, err := evalStr(t, "$p", rec, nil); !errors.Is(err, ErrUnknownParameter) {
		t.Errorf("unknown parameter error expected, got %v", err)
	}
	if _, err := evalStr(t, "count(1)", rec, nil); !errors.Is(err, ErrAggregateHere) {
		t.Errorf("aggregate misuse error expected, got %v", err)
	}
	if _, err := evalStr(t, "count(*)", rec, nil); !errors.Is(err, ErrAggregateHere) {
		t.Errorf("count(*) misuse error expected, got %v", err)
	}
	if _, err := evalStr(t, "1.prop", rec, nil); !errors.Is(err, ErrTypeError) {
		t.Errorf("property access on integer should be a type error, got %v", err)
	}
	if _, err := evalStr(t, "1[0]", rec, nil); !errors.Is(err, ErrTypeError) {
		t.Errorf("indexing an integer should be a type error, got %v", err)
	}
	if _, err := evalStr(t, "'x'[0..1]", rec, nil); !errors.Is(err, ErrTypeError) {
		t.Errorf("slicing a string should be a type error, got %v", err)
	}
	if _, err := evalStr(t, "nosuchfunction(1)", rec, nil); err == nil {
		t.Errorf("unknown function should fail")
	}
	if _, err := evalStr(t, "'a' =~ '('", rec, nil); err == nil {
		t.Errorf("invalid regular expression should fail")
	}
	if _, err := evalStr(t, "1 IN 2", rec, nil); !errors.Is(err, ErrTypeError) {
		t.Errorf("IN on a non-list should be a type error, got %v", err)
	}
}

func TestEvaluateParameters(t *testing.T) {
	params := map[string]value.Value{"limit": value.NewInt(3), "name": value.NewString("Ada")}
	v, err := evalStr(t, "$limit * 2", result.NewRecord(), params)
	if err != nil || value.Compare(v, value.NewInt(6)) != 0 {
		t.Errorf("$limit * 2 = %v, %v", v, err)
	}
	v, err = evalStr(t, "$name STARTS WITH 'A'", result.NewRecord(), params)
	if err != nil || value.Compare(v, value.NewBool(true)) != 0 {
		t.Errorf("parameter string predicate wrong: %v, %v", v, err)
	}
}

func TestScalarFunctionLibrary(t *testing.T) {
	rec := result.NewRecord()
	cases := map[string]value.Value{
		"coalesce(null, null, 3)":     value.NewInt(3),
		"coalesce(null)":              value.Null(),
		"abs(-4)":                     value.NewInt(4),
		"abs(-4.5)":                   value.NewFloat(4.5),
		"sign(-9)":                    value.NewInt(-1),
		"sign(0)":                     value.NewInt(0),
		"ceil(1.2)":                   value.NewFloat(2),
		"floor(1.8)":                  value.NewFloat(1),
		"round(1.5)":                  value.NewFloat(2),
		"sqrt(16)":                    value.NewFloat(4),
		"toInteger('42')":             value.NewInt(42),
		"toInteger(3.9)":              value.NewInt(3),
		"toInteger('junk')":           value.Null(),
		"toFloat('2.5')":              value.NewFloat(2.5),
		"toFloat(2)":                  value.NewFloat(2),
		"toBoolean('true')":           value.NewBool(true),
		"toBoolean('junk')":           value.Null(),
		"toString(42)":                value.NewString("42"),
		"toUpper('ab')":               value.NewString("AB"),
		"toLower('AB')":               value.NewString("ab"),
		"trim('  x  ')":               value.NewString("x"),
		"lTrim('  x')":                value.NewString("x"),
		"rTrim('x  ')":                value.NewString("x"),
		"replace('banana', 'a', 'o')": value.NewString("bonono"),
		"split('a,b,c', ',')[1]":      value.NewString("b"),
		"substring('hello', 1, 3)":    value.NewString("ell"),
		"substring('hello', 1)":       value.NewString("ello"),
		"left('hello', 2)":            value.NewString("he"),
		"right('hello', 2)":           value.NewString("lo"),
		"reverse('abc')":              value.NewString("cba"),
		"size('hello')":               value.NewInt(5),
		"length('hello')":             value.NewInt(5),
		"range(1, 4)":                 value.NewList(value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(4)),
		"range(5, 1, -2)":             value.NewList(value.NewInt(5), value.NewInt(3), value.NewInt(1)),
		"exists(null)":                value.NewBool(false),
		"exists(1)":                   value.NewBool(true),
	}
	for src, want := range cases {
		got := mustEval(t, src, rec)
		if value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if _, err := evalStr(t, "range(1, 10, 0)", rec, nil); err == nil {
		t.Errorf("range with zero step should fail")
	}
	if _, err := evalStr(t, "abs('x')", rec, nil); err == nil {
		t.Errorf("abs of a string should fail")
	}
}

func TestAggregators(t *testing.T) {
	feed := func(t *testing.T, name string, distinct bool, vals ...value.Value) value.Value {
		t.Helper()
		agg, err := NewAggregator(name, distinct)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if err := agg.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		return agg.Result()
	}
	if got := feed(t, "count", false, value.NewInt(1), value.Null(), value.NewInt(2)); value.Compare(got, value.NewInt(2)) != 0 {
		t.Errorf("count skips nulls: %v", got)
	}
	if got := feed(t, "count", true, value.NewInt(1), value.NewInt(1), value.NewInt(2)); value.Compare(got, value.NewInt(2)) != 0 {
		t.Errorf("count distinct: %v", got)
	}
	if got := feed(t, "sum", false, value.NewInt(1), value.NewFloat(2.5)); value.Compare(got, value.NewFloat(3.5)) != 0 {
		t.Errorf("sum: %v", got)
	}
	if got := feed(t, "sum", false); value.Compare(got, value.NewInt(0)) != 0 {
		t.Errorf("empty sum should be 0: %v", got)
	}
	if got := feed(t, "avg", false, value.NewInt(1), value.NewInt(3)); value.Compare(got, value.NewFloat(2)) != 0 {
		t.Errorf("avg: %v", got)
	}
	if got := feed(t, "avg", false); !value.IsNull(got) {
		t.Errorf("empty avg should be null: %v", got)
	}
	if got := feed(t, "min", false, value.NewInt(5), value.NewInt(2), value.Null()); value.Compare(got, value.NewInt(2)) != 0 {
		t.Errorf("min: %v", got)
	}
	if got := feed(t, "max", false, value.NewString("a"), value.NewString("c")); value.Compare(got, value.NewString("c")) != 0 {
		t.Errorf("max: %v", got)
	}
	if got := feed(t, "min", false); !value.IsNull(got) {
		t.Errorf("empty min should be null: %v", got)
	}
	if got := feed(t, "collect", true, value.NewInt(1), value.NewInt(1), value.Null()); value.Compare(got, value.NewList(value.NewInt(1))) != 0 {
		t.Errorf("collect distinct skips nulls and duplicates: %v", got)
	}
	star := NewCountStarAggregator()
	_ = star.Add(value.Null())
	_ = star.Add(value.Null())
	if value.Compare(star.Result(), value.NewInt(2)) != 0 {
		t.Errorf("count(*) counts rows including nulls")
	}
	if _, err := NewAggregator("nope", false); err == nil {
		t.Errorf("unknown aggregator should fail")
	}
	agg, _ := NewAggregator("sum", false)
	if err := agg.Add(value.NewString("x")); err == nil {
		t.Errorf("sum of a string should fail")
	}
	avgAgg, _ := NewAggregator("avg", false)
	if err := avgAgg.Add(value.NewBool(true)); err == nil {
		t.Errorf("avg of a boolean should fail")
	}
}

func TestContainsAggregateAndVariables(t *testing.T) {
	parse := func(src string) ast.Expr {
		e, err := parser.ParseExpression(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if !ContainsAggregate(parse("count(x) + 1")) || !ContainsAggregate(parse("count(*)")) {
		t.Errorf("ContainsAggregate misses aggregates")
	}
	if ContainsAggregate(parse("size(x) + 1")) {
		t.Errorf("size() is not an aggregate")
	}
	if !IsAggregate("collect") || IsAggregate("size") {
		t.Errorf("IsAggregate wrong")
	}
	vars := Variables(parse("a.x + b[c] + [y IN d WHERE y > e | y + f]"))
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true, "f": true}
	if len(vars) != len(want) {
		t.Fatalf("Variables = %v", vars)
	}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected variable %q", v)
		}
	}
	// The comprehension variable itself is not free.
	for _, v := range vars {
		if v == "y" {
			t.Errorf("comprehension variable should not be free")
		}
	}
	if vs := Variables(parse("(a)-[:KNOWS]->(b)")); len(vs) != 2 {
		t.Errorf("pattern predicate variables = %v", vs)
	}
	// Property maps inside a pattern predicate read outer variables too.
	if vs := Variables(parse("(a {k: x.k})-[:KNOWS {since: y}]->(b)")); !slices.Equal(vs, []string{"a", "b", "x", "y"}) {
		t.Errorf("pattern predicate property variables = %v", vs)
	}
}

// Property: evaluating a literal integer expression equals doing the
// arithmetic in Go (within a safe range).
func TestQuickArithmeticAgainstGo(t *testing.T) {
	ctx := &Context{}
	f := func(a, b int16) bool {
		e := &ast.BinaryOp{
			Op:  ast.OpAdd,
			LHS: &ast.Literal{Value: value.NewInt(int64(a))},
			RHS: &ast.BinaryOp{Op: ast.OpMul, LHS: &ast.Literal{Value: value.NewInt(int64(b))}, RHS: &ast.Literal{Value: value.NewInt(3)}},
		}
		got, err := ctx.Evaluate(e, result.NewRecord())
		if err != nil {
			return false
		}
		return value.Compare(got, value.NewInt(int64(a)+int64(b)*3)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
