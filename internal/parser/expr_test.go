package parser

import (
	"math"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/value"
)

func parseExpr(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := ParseExpression(src)
	if err != nil {
		t.Fatalf("ParseExpression(%q): %v", src, err)
	}
	return e
}

func TestParseLiterals(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"42", value.NewInt(42)},
		{"-7", value.NewInt(-7)},
		{"3.5", value.NewFloat(3.5)},
		{"'hello'", value.NewString("hello")},
		{"true", value.NewBool(true)},
		{"FALSE", value.NewBool(false)},
		{"null", value.Null()},
	}
	for _, c := range cases {
		e := parseExpr(t, c.src)
		lit, ok := e.(*ast.Literal)
		if !ok {
			t.Errorf("%q should parse to a literal, got %T", c.src, e)
			continue
		}
		if value.Compare(lit.Value, c.want) != 0 {
			t.Errorf("%q = %v, want %v", c.src, lit.Value, c.want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "1 + 2 * 3"}, // structure differs, text form flattens
		{"a OR b AND c", "a OR b AND c"},
		{"NOT a AND b", "NOT a AND b"},
		{"a.x > 1 + 2", "a.x > 1 + 2"},
	}
	_ = cases
	// Structural checks are more meaningful than text comparison:
	e := parseExpr(t, "1 + 2 * 3")
	add := e.(*ast.BinaryOp)
	if add.Op != ast.OpAdd {
		t.Fatalf("top operator should be +, got %v", add.Op)
	}
	if mul, ok := add.RHS.(*ast.BinaryOp); !ok || mul.Op != ast.OpMul {
		t.Errorf("* should bind tighter than +")
	}

	e2 := parseExpr(t, "(1 + 2) * 3")
	mul := e2.(*ast.BinaryOp)
	if mul.Op != ast.OpMul {
		t.Fatalf("top operator should be *")
	}
	if add2, ok := mul.LHS.(*ast.BinaryOp); !ok || add2.Op != ast.OpAdd {
		t.Errorf("parenthesized + should be the left operand")
	}

	e3 := parseExpr(t, "a OR b AND c XOR d")
	or := e3.(*ast.BinaryOp)
	if or.Op != ast.OpOr {
		t.Fatalf("top operator should be OR, got %v", or.Op)
	}
	xor := or.RHS.(*ast.BinaryOp)
	if xor.Op != ast.OpXor {
		t.Fatalf("second level should be XOR, got %v", xor.Op)
	}
	and := xor.LHS.(*ast.BinaryOp)
	if and.Op != ast.OpAnd {
		t.Errorf("AND should bind tighter than XOR")
	}

	e4 := parseExpr(t, "NOT a = b")
	not := e4.(*ast.UnaryOp)
	if not.Op != ast.OpNot {
		t.Fatalf("top should be NOT")
	}
	if cmp, ok := not.Operand.(*ast.BinaryOp); !ok || cmp.Op != ast.OpEq {
		t.Errorf("NOT should apply to the whole comparison")
	}

	e5 := parseExpr(t, "2 ^ 3 ^ 2")
	pow := e5.(*ast.BinaryOp)
	if pow.Op != ast.OpPow {
		t.Fatalf("top should be ^")
	}
	if rhs, ok := pow.RHS.(*ast.BinaryOp); !ok || rhs.Op != ast.OpPow {
		t.Errorf("^ should be right-associative")
	}

	e6 := parseExpr(t, "1 - 2 - 3")
	sub := e6.(*ast.BinaryOp)
	if lhs, ok := sub.LHS.(*ast.BinaryOp); !ok || lhs.Op != ast.OpSub {
		t.Errorf("- should be left-associative")
	}
}

func TestParseComparisonsAndPredicates(t *testing.T) {
	ops := map[string]ast.BinaryOperator{
		"a = b":             ast.OpEq,
		"a <> b":            ast.OpNeq,
		"a < b":             ast.OpLt,
		"a <= b":            ast.OpLe,
		"a > b":             ast.OpGt,
		"a >= b":            ast.OpGe,
		"a IN [1,2]":        ast.OpIn,
		"a STARTS WITH 'x'": ast.OpStartsWith,
		"a ENDS WITH 'x'":   ast.OpEndsWith,
		"a CONTAINS 'x'":    ast.OpContains,
		"a =~ 'x.*'":        ast.OpRegexMatch,
		"a % b":             ast.OpMod,
	}
	for src, want := range ops {
		e := parseExpr(t, src)
		bo, ok := e.(*ast.BinaryOp)
		if !ok || bo.Op != want {
			t.Errorf("%q: got %T %v, want op %v", src, e, e, want)
		}
	}

	e := parseExpr(t, "a.age IS NULL")
	isn, ok := e.(*ast.IsNull)
	if !ok || isn.Negated {
		t.Errorf("IS NULL wrong: %T", e)
	}
	e2 := parseExpr(t, "a.age IS NOT NULL")
	isn2, ok := e2.(*ast.IsNull)
	if !ok || !isn2.Negated {
		t.Errorf("IS NOT NULL wrong: %T", e2)
	}
	e3 := parseExpr(t, "pInfo:SSN OR pInfo:PhoneNumber")
	or := e3.(*ast.BinaryOp)
	hl, ok := or.LHS.(*ast.HasLabels)
	if !ok || hl.Labels[0] != "SSN" {
		t.Errorf("label predicate wrong: %T %v", or.LHS, or.LHS)
	}
}

func TestParsePropertyAccessIndexSlice(t *testing.T) {
	e := parseExpr(t, "a.b.c")
	pa := e.(*ast.PropertyAccess)
	if pa.Key != "c" {
		t.Errorf("outer key = %q", pa.Key)
	}
	inner := pa.Subject.(*ast.PropertyAccess)
	if inner.Key != "b" {
		t.Errorf("inner key = %q", inner.Key)
	}

	e2 := parseExpr(t, "list[0]")
	if _, ok := e2.(*ast.Index); !ok {
		t.Errorf("index expression wrong: %T", e2)
	}
	e3 := parseExpr(t, "list[1..3]")
	sl, ok := e3.(*ast.Slice)
	if !ok || sl.From == nil || sl.To == nil {
		t.Errorf("slice wrong: %T", e3)
	}
	e4 := parseExpr(t, "list[..3]")
	sl4 := e4.(*ast.Slice)
	if sl4.From != nil || sl4.To == nil {
		t.Errorf("open-start slice wrong")
	}
	e5 := parseExpr(t, "list[1..]")
	sl5 := e5.(*ast.Slice)
	if sl5.From == nil || sl5.To != nil {
		t.Errorf("open-end slice wrong")
	}
	// Property access on a parameter and on a map literal.
	e6 := parseExpr(t, "$param.key")
	if _, ok := e6.(*ast.PropertyAccess); !ok {
		t.Errorf("parameter property access wrong: %T", e6)
	}
	e7 := parseExpr(t, "{a: 1}.a")
	if _, ok := e7.(*ast.PropertyAccess); !ok {
		t.Errorf("map literal property access wrong: %T", e7)
	}
}

func TestParseListsAndMaps(t *testing.T) {
	e := parseExpr(t, "[1, 'two', [3]]")
	ll := e.(*ast.ListLiteral)
	if len(ll.Elems) != 3 {
		t.Errorf("list literal elems = %d", len(ll.Elems))
	}
	e2 := parseExpr(t, "[]")
	if len(e2.(*ast.ListLiteral).Elems) != 0 {
		t.Errorf("empty list wrong")
	}
	e3 := parseExpr(t, "{name: 'Nils', scores: [1,2]}")
	ml := e3.(*ast.MapLiteral)
	if len(ml.Keys) != 2 || ml.Keys[0] != "name" {
		t.Errorf("map literal wrong: %+v", ml)
	}
	e4 := parseExpr(t, "{}")
	if len(e4.(*ast.MapLiteral).Keys) != 0 {
		t.Errorf("empty map wrong")
	}
	e5 := parseExpr(t, "3 IN list")
	if e5.(*ast.BinaryOp).Op != ast.OpIn {
		t.Errorf("IN wrong")
	}
}

func TestParseListComprehension(t *testing.T) {
	e := parseExpr(t, "[x IN range(1,10) WHERE x % 2 = 0 | x * 10]")
	lc, ok := e.(*ast.ListComprehension)
	if !ok {
		t.Fatalf("expected list comprehension, got %T", e)
	}
	if lc.Variable != "x" || lc.Where == nil || lc.Projection == nil {
		t.Errorf("list comprehension parts wrong: %+v", lc)
	}
	e2 := parseExpr(t, "[x IN list | x.name]")
	lc2 := e2.(*ast.ListComprehension)
	if lc2.Where != nil || lc2.Projection == nil {
		t.Errorf("projection-only comprehension wrong")
	}
	e3 := parseExpr(t, "[x IN list WHERE x > 0]")
	lc3 := e3.(*ast.ListComprehension)
	if lc3.Where == nil || lc3.Projection != nil {
		t.Errorf("filter-only comprehension wrong")
	}
}

func TestParseCase(t *testing.T) {
	e := parseExpr(t, "CASE WHEN a > 1 THEN 'big' WHEN a = 1 THEN 'one' ELSE 'small' END")
	c := e.(*ast.Case)
	if c.Test != nil || len(c.Alternatives) != 2 || c.Else == nil {
		t.Errorf("searched CASE wrong: %+v", c)
	}
	e2 := parseExpr(t, "CASE a.grade WHEN 1 THEN 'first' ELSE 'other' END")
	c2 := e2.(*ast.Case)
	if c2.Test == nil || len(c2.Alternatives) != 1 {
		t.Errorf("simple CASE wrong: %+v", c2)
	}
}

func TestParseFunctionsAndAggregates(t *testing.T) {
	e := parseExpr(t, "count(DISTINCT p)")
	fc := e.(*ast.FunctionCall)
	if fc.Name != "count" || !fc.Distinct || len(fc.Args) != 1 {
		t.Errorf("count(DISTINCT p) wrong: %+v", fc)
	}
	e2 := parseExpr(t, "coalesce(a.x, b.y, 0)")
	fc2 := e2.(*ast.FunctionCall)
	if fc2.Name != "coalesce" || len(fc2.Args) != 3 {
		t.Errorf("coalesce wrong: %+v", fc2)
	}
	e3 := parseExpr(t, "count(*)")
	if _, ok := e3.(*ast.CountStar); !ok {
		t.Errorf("count(*) wrong: %T", e3)
	}
	e4 := parseExpr(t, "size([1,2,3])")
	if e4.(*ast.FunctionCall).Name != "size" {
		t.Errorf("size wrong")
	}
	// Function names are case-insensitive (normalised to lower case).
	e5 := parseExpr(t, "COLLECT(x)")
	if e5.(*ast.FunctionCall).Name != "collect" {
		t.Errorf("function name should be normalised to lower case")
	}
}

func TestParseExistsAndPatternPredicate(t *testing.T) {
	e := parseExpr(t, "exists(n.email)")
	fc, ok := e.(*ast.FunctionCall)
	if !ok || fc.Name != "exists" {
		t.Errorf("exists(prop) wrong: %T", e)
	}
	e2 := parseExpr(t, "EXISTS((a)-[:KNOWS]->(b))")
	if _, ok := e2.(*ast.PatternPredicate); !ok {
		t.Errorf("EXISTS(pattern) wrong: %T", e2)
	}
	e3 := parseExpr(t, "(a)-[:KNOWS]->(b)")
	pp, ok := e3.(*ast.PatternPredicate)
	if !ok || len(pp.Pattern.Rels) != 1 {
		t.Errorf("bare pattern predicate wrong: %T", e3)
	}
	// A parenthesized arithmetic expression must not be mistaken for a
	// pattern.
	e4 := parseExpr(t, "(a) - 2")
	if _, ok := e4.(*ast.BinaryOp); !ok {
		t.Errorf("(a) - 2 should be arithmetic, got %T", e4)
	}
}

func TestParseParametersAndUnary(t *testing.T) {
	e := parseExpr(t, "$limit")
	if e.(*ast.Parameter).Name != "limit" {
		t.Errorf("parameter wrong")
	}
	e2 := parseExpr(t, "-x")
	if e2.(*ast.UnaryOp).Op != ast.OpNeg {
		t.Errorf("unary minus wrong")
	}
	e3 := parseExpr(t, "+x")
	if e3.(*ast.UnaryOp).Op != ast.OpPos {
		t.Errorf("unary plus wrong")
	}
	e4 := parseExpr(t, "NOT NOT true")
	inner := e4.(*ast.UnaryOp).Operand.(*ast.UnaryOp)
	if inner.Op != ast.OpNot {
		t.Errorf("double NOT wrong")
	}
	e5 := parseExpr(t, "-3.5")
	if v := e5.(*ast.Literal).Value; value.Compare(v, value.NewFloat(-3.5)) != 0 {
		t.Errorf("negative float literal folding wrong: %v", v)
	}
}

func TestExpressionStringForms(t *testing.T) {
	// The String() form is used for implicit column names; spot-check a few.
	cases := []struct{ src, want string }{
		{"r.name", "r.name"},
		{"count(DISTINCT p2)", "count(DISTINCT p2)"},
		{"count(*)", "count(*)"},
		{"1 + 2", "1 + 2"},
		{"a IS NULL", "a IS NULL"},
		{"[x IN l WHERE x > 0 | x]", "[x IN l WHERE x > 0 | x]"},
		{"labels(pInfo)", "labels(pInfo)"},
		{"a:Person", "a:Person"},
		{"CASE WHEN a THEN 1 ELSE 2 END", "CASE WHEN a THEN 1 ELSE 2 END"},
		{"m[1..2]", "m[1..2]"},
		{"-x", "-x"},
		{"$p", "$p"},
	}
	for _, c := range cases {
		e := parseExpr(t, c.src)
		if got := e.String(); got != c.want {
			t.Errorf("String(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseReduce(t *testing.T) {
	e := parseExpr(t, "reduce(acc = 0, x IN [1, 2] | acc + x)")
	red, ok := e.(*ast.Reduce)
	if !ok {
		t.Fatalf("expected *ast.Reduce, got %T", e)
	}
	if red.Accumulator != "acc" || red.Variable != "x" {
		t.Errorf("bound variables: %q, %q", red.Accumulator, red.Variable)
	}
	if red.Init == nil || red.List == nil || red.Expr == nil {
		t.Fatalf("incomplete reduce: %+v", red)
	}
	if got := red.String(); got != "reduce(acc = 0, x IN [1, 2] | acc + x)" {
		t.Errorf("String() = %q", got)
	}

	// reduce nests and composes with other expressions.
	e = parseExpr(t, "1 + reduce(s = '', c IN reduce(l = [], y IN [1] | l + y) | s + c)")
	if _, ok := e.(*ast.BinaryOp); !ok {
		t.Errorf("nested reduce should parse inside arithmetic, got %T", e)
	}

	// Malformed variants are syntax errors.
	for _, bad := range []string{
		"reduce(acc, x IN [1] | acc)",        // missing = init
		"reduce(acc = 0, x IN [1])",          // missing | expr
		"reduce(acc = 0 | acc)",              // missing iteration
		"reduce(acc = 0, x [1] | acc)",       // missing IN
		"reduce(acc = 0, x IN [1] | acc, 1)", // trailing argument
		"reduce(x = 0, x IN [1, 2] | x + 1)", // iteration variable shadows the accumulator
	} {
		if _, err := ParseExpression(bad); err == nil {
			t.Errorf("ParseExpression(%q) should fail", bad)
		}
	}
}

// TestMinInt64Literal checks that a unary minus directly on
// 9223372036854775808 parses as math.MinInt64, while the bare magnitude, a
// postfix use of it and a hop count stay errors.
func TestMinInt64Literal(t *testing.T) {
	for _, src := range []string{"-9223372036854775808", "- 9223372036854775808"} {
		lit, ok := parseExpr(t, src).(*ast.Literal)
		if n, isInt := value.AsInt(lit.Value); !ok || !isInt || n != math.MinInt64 {
			t.Errorf("%s parsed as %v, want the integer %d", src, lit, int64(math.MinInt64))
		}
	}
	e := parseExpr(t, "1 - -9223372036854775808")
	if b, ok := e.(*ast.BinaryOp); !ok || b.Op != ast.OpSub {
		t.Errorf("binary minus over MinInt64 parsed as %T", e)
	}
	if e := parseExpr(t, "--9223372036854775808"); e.(*ast.UnaryOp).Op != ast.OpNeg {
		t.Errorf("negated MinInt64 must stay a negation (it overflows at run time)")
	}
	for _, src := range []string{"9223372036854775808", "-9223372036854775808.x", "-9223372036854775808[0]", "-9223372036854775809"} {
		_, err := ParseExpression(src)
		if err == nil || !strings.Contains(err.Error(), "invalid integer literal") {
			t.Errorf("ParseExpression(%q) = %v, want an invalid integer literal error", src, err)
		}
	}
	if _, err := Parse("MATCH (a)-[*9223372036854775808]->(b) RETURN b"); err == nil {
		t.Errorf("an overflowing hop count must be rejected")
	}
}
