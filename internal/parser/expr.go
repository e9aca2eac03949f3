package parser

import (
	"math"
	"strings"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/value"
)

// Expression parsing, by descending precedence:
// OR < XOR < AND < NOT < comparisons and string/list/null predicates <
// addition < multiplication < exponentiation < unary sign < postfix
// (property access, indexing, slicing, label predicate) < atoms.

func (p *Parser) parseExpression() (ast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (ast.Expr, error) {
	lhs, err := p.parseXor()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("OR") {
		p.next()
		rhs, err := p.parseXor()
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryOp{Op: ast.OpOr, LHS: lhs, RHS: rhs}
	}
	return lhs, nil
}

func (p *Parser) parseXor() (ast.Expr, error) {
	lhs, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("XOR") {
		p.next()
		rhs, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryOp{Op: ast.OpXor, LHS: lhs, RHS: rhs}
	}
	return lhs, nil
}

func (p *Parser) parseAnd() (ast.Expr, error) {
	lhs, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().Is("AND") {
		p.next()
		rhs, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryOp{Op: ast.OpAnd, LHS: lhs, RHS: rhs}
	}
	return lhs, nil
}

func (p *Parser) parseNot() (ast.Expr, error) {
	if p.peek().Is("NOT") {
		p.next()
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryOp{Op: ast.OpNot, Operand: operand}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (ast.Expr, error) {
	lhs, err := p.parseAddSub()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op ast.BinaryOperator
		switch {
		case t.Type == lexer.Eq:
			op = ast.OpEq
		case t.Type == lexer.Neq:
			op = ast.OpNeq
		case t.Type == lexer.Lt:
			op = ast.OpLt
		case t.Type == lexer.Le:
			op = ast.OpLe
		case t.Type == lexer.Gt:
			op = ast.OpGt
		case t.Type == lexer.Ge:
			op = ast.OpGe
		case t.Type == lexer.RegexEq:
			op = ast.OpRegexMatch
		case t.Is("IN"):
			op = ast.OpIn
		case t.Is("STARTS"):
			p.next()
			if err := p.expectKeyword("WITH"); err != nil {
				return nil, err
			}
			rhs, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			lhs = &ast.BinaryOp{Op: ast.OpStartsWith, LHS: lhs, RHS: rhs}
			continue
		case t.Is("ENDS"):
			p.next()
			if err := p.expectKeyword("WITH"); err != nil {
				return nil, err
			}
			rhs, err := p.parseAddSub()
			if err != nil {
				return nil, err
			}
			lhs = &ast.BinaryOp{Op: ast.OpEndsWith, LHS: lhs, RHS: rhs}
			continue
		case t.Is("CONTAINS"):
			op = ast.OpContains
		case t.Is("IS"):
			p.next()
			negated := false
			if p.acceptKeyword("NOT") {
				negated = true
			}
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			lhs = &ast.IsNull{Operand: lhs, Negated: negated}
			continue
		default:
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseAddSub()
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryOp{Op: op, LHS: lhs, RHS: rhs}
	}
}

func (p *Parser) parseAddSub() (ast.Expr, error) {
	lhs, err := p.parseMulDiv()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Type {
		case lexer.Plus:
			p.next()
			rhs, err := p.parseMulDiv()
			if err != nil {
				return nil, err
			}
			lhs = &ast.BinaryOp{Op: ast.OpAdd, LHS: lhs, RHS: rhs}
		case lexer.Minus:
			p.next()
			rhs, err := p.parseMulDiv()
			if err != nil {
				return nil, err
			}
			lhs = &ast.BinaryOp{Op: ast.OpSub, LHS: lhs, RHS: rhs}
		default:
			return lhs, nil
		}
	}
}

func (p *Parser) parseMulDiv() (ast.Expr, error) {
	lhs, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinaryOperator
		switch p.peek().Type {
		case lexer.Star:
			op = ast.OpMul
		case lexer.Slash:
			op = ast.OpDiv
		case lexer.Percent:
			op = ast.OpMod
		default:
			return lhs, nil
		}
		p.next()
		rhs, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		lhs = &ast.BinaryOp{Op: op, LHS: lhs, RHS: rhs}
	}
}

func (p *Parser) parsePower() (ast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.peek().Type == lexer.Caret {
		p.next()
		// Right-associative.
		rhs, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		return &ast.BinaryOp{Op: ast.OpPow, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *Parser) parseUnary() (ast.Expr, error) {
	switch p.peek().Type {
	case lexer.Minus:
		p.next()
		if p.peek().Type == lexer.MinIntMagnitude && !postfixStart(p.peekAt(1).Type) {
			// -9223372036854775808 is math.MinInt64, whose magnitude alone
			// overflows an int64.
			p.next()
			return &ast.Literal{Value: value.NewInt(math.MinInt64)}, nil
		}
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a negated numeric literal into the literal itself.
		if lit, ok := operand.(*ast.Literal); ok {
			if neg, err := value.Neg(lit.Value); err == nil {
				return &ast.Literal{Value: neg}, nil
			}
		}
		return &ast.UnaryOp{Op: ast.OpNeg, Operand: operand}, nil
	case lexer.Plus:
		p.next()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryOp{Op: ast.OpPos, Operand: operand}, nil
	}
	return p.parsePostfix()
}

// postfixStart reports whether a token of type t continues an atom as a
// postfix operator (property access, index or slice, label predicate).
func postfixStart(t lexer.Type) bool {
	return t == lexer.Dot || t == lexer.LBracket || t == lexer.Colon
}

func (p *Parser) parsePostfix() (ast.Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek().Type {
		case lexer.Dot:
			p.next()
			key, err := p.symbolicName("property key")
			if err != nil {
				return nil, err
			}
			e = &ast.PropertyAccess{Subject: e, Key: key}
		case lexer.LBracket:
			p.next()
			var from ast.Expr
			if p.peek().Type != lexer.DotDot {
				from, err = p.parseExpression()
				if err != nil {
					return nil, err
				}
			}
			if p.peek().Type == lexer.DotDot {
				p.next()
				var to ast.Expr
				if p.peek().Type != lexer.RBracket {
					to, err = p.parseExpression()
					if err != nil {
						return nil, err
					}
				}
				if _, err := p.expect(lexer.RBracket, "']' closing a slice"); err != nil {
					return nil, err
				}
				e = &ast.Slice{Subject: e, From: from, To: to}
			} else {
				if _, err := p.expect(lexer.RBracket, "']' closing an index"); err != nil {
					return nil, err
				}
				e = &ast.Index{Subject: e, Idx: from}
			}
		case lexer.Colon:
			// Label predicate: expr:Label1:Label2 (only meaningful on node
			// expressions; e.g. `pInfo:SSN OR pInfo:PhoneNumber`).
			var labels []string
			for p.peek().Type == lexer.Colon {
				p.next()
				l, err := p.symbolicName("label")
				if err != nil {
					return nil, err
				}
				labels = append(labels, l)
			}
			e = &ast.HasLabels{Subject: e, Labels: labels}
		default:
			return e, nil
		}
	}
}

func (p *Parser) parseAtom() (ast.Expr, error) {
	t := p.peek()
	switch {
	case t.Type == lexer.Integer:
		p.next()
		return &ast.Literal{Value: value.NewInt(t.IntVal)}, nil
	case t.Type == lexer.MinIntMagnitude:
		return nil, p.errorf("invalid integer literal %s", t.Text)
	case t.Type == lexer.Float:
		p.next()
		return &ast.Literal{Value: value.NewFloat(t.FltVal)}, nil
	case t.Type == lexer.StringLit:
		p.next()
		return &ast.Literal{Value: value.NewString(t.StrVal)}, nil
	case t.Is("TRUE"):
		p.next()
		return &ast.Literal{Value: value.NewBool(true)}, nil
	case t.Is("FALSE"):
		p.next()
		return &ast.Literal{Value: value.NewBool(false)}, nil
	case t.Is("NULL"):
		p.next()
		return &ast.Literal{Value: value.Null()}, nil
	case t.Type == lexer.Parameter:
		p.next()
		return &ast.Parameter{Name: t.StrVal}, nil
	case t.Is("CASE"):
		return p.parseCase()
	case t.Is("EXISTS"):
		return p.parseExists()
	case t.Is("COUNT"):
		// COUNT is lexed as a keyword only if listed; it is not, so this arm
		// is unreachable — count() arrives as an identifier below.
		return p.parseFunctionOrVariable()
	case t.Type == lexer.LBrace:
		m, err := p.parseMapLiteral()
		if err != nil {
			return nil, err
		}
		return m, nil
	case t.Type == lexer.LBracket:
		return p.parseListLiteralOrComprehension()
	case t.Type == lexer.LParen:
		return p.parseParenthesizedOrPattern()
	case t.Type == lexer.Ident:
		return p.parseFunctionOrVariable()
	}
	return nil, p.errorf("expected an expression, found %s", t)
}

func (p *Parser) parseFunctionOrVariable() (ast.Expr, error) {
	name := p.next().StrVal
	if p.peek().Type != lexer.LParen {
		return &ast.Variable{Name: name}, nil
	}
	p.next() // consume '('
	call := &ast.FunctionCall{Name: strings.ToLower(name)}
	if call.Name == "reduce" {
		return p.parseReduceTail()
	}
	if p.peek().Type == lexer.Star && call.Name == "count" {
		p.next()
		if _, err := p.expect(lexer.RParen, "')' closing count(*)"); err != nil {
			return nil, err
		}
		return &ast.CountStar{}, nil
	}
	if p.acceptKeyword("DISTINCT") {
		call.Distinct = true
	}
	if p.peek().Type != lexer.RParen {
		for {
			arg, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.peek().Type != lexer.Comma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(lexer.RParen, "')' closing a function call"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *Parser) parseCase() (ast.Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &ast.Case{}
	if !p.peek().Is("WHEN") {
		test, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		c.Test = test
	}
	for p.peek().Is("WHEN") {
		p.next()
		when, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		c.Alternatives = append(c.Alternatives, ast.CaseAlternative{When: when, Then: then})
	}
	if len(c.Alternatives) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN alternative")
	}
	if p.acceptKeyword("ELSE") {
		els, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		c.Else = els
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseExists() (ast.Expr, error) {
	if err := p.expectKeyword("EXISTS"); err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.LParen, "'(' after EXISTS"); err != nil {
		return nil, err
	}
	// EXISTS((a)-[:T]->(b)) is a pattern predicate; EXISTS(n.prop) is the
	// property-existence function.
	if p.peek().Type == lexer.LParen {
		save := p.pos
		part, err := p.parsePatternPart()
		if err == nil && len(part.Rels) > 0 && p.peek().Type == lexer.RParen {
			p.next()
			return &ast.PatternPredicate{Pattern: part}, nil
		}
		p.pos = save
	}
	arg, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen, "')' closing EXISTS"); err != nil {
		return nil, err
	}
	return &ast.FunctionCall{Name: "exists", Args: []ast.Expr{arg}}, nil
}

// parseReduceTail parses the body of reduce(acc = init, x IN list | expr)
// after the opening parenthesis. reduce is a binding form, not an ordinary
// function call: acc and x become locally bound variables of the final
// expression.
func (p *Parser) parseReduceTail() (ast.Expr, error) {
	red := &ast.Reduce{}
	tok := p.peek()
	if tok.Type != lexer.Ident {
		return nil, p.errorf("expected an accumulator variable in reduce(...), found %s", tok)
	}
	red.Accumulator = p.next().StrVal
	if _, err := p.expect(lexer.Eq, "'=' after the reduce accumulator"); err != nil {
		return nil, err
	}
	init, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	red.Init = init
	if _, err := p.expect(lexer.Comma, "',' after the reduce accumulator initialiser"); err != nil {
		return nil, err
	}
	tok = p.peek()
	if tok.Type != lexer.Ident {
		return nil, p.errorf("expected an iteration variable in reduce(...), found %s", tok)
	}
	red.Variable = p.next().StrVal
	if red.Variable == red.Accumulator {
		// Shadowing the accumulator would silently degenerate the fold to
		// a function of the last element only.
		return nil, p.errorf("variable `%s` already declared as the reduce accumulator", red.Variable)
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, err
	}
	list, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	red.List = list
	if _, err := p.expect(lexer.Pipe, "'|' before the reduce expression"); err != nil {
		return nil, err
	}
	expr, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	red.Expr = expr
	if _, err := p.expect(lexer.RParen, "')' closing reduce(...)"); err != nil {
		return nil, err
	}
	return red, nil
}

func (p *Parser) parseListLiteralOrComprehension() (ast.Expr, error) {
	if _, err := p.expect(lexer.LBracket, "'['"); err != nil {
		return nil, err
	}
	// Empty list.
	if p.peek().Type == lexer.RBracket {
		p.next()
		return &ast.ListLiteral{}, nil
	}
	// List comprehension: [x IN expr WHERE pred | proj].
	if p.peek().Type == lexer.Ident && p.peekAt(1).Is("IN") {
		variable := p.next().StrVal
		p.next() // IN
		list, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		lc := &ast.ListComprehension{Variable: variable, List: list}
		if p.acceptKeyword("WHERE") {
			where, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			lc.Where = where
		}
		if p.peek().Type == lexer.Pipe {
			p.next()
			proj, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			lc.Projection = proj
		}
		if _, err := p.expect(lexer.RBracket, "']' closing a list comprehension"); err != nil {
			return nil, err
		}
		return lc, nil
	}
	// Plain list literal.
	lit := &ast.ListLiteral{}
	for {
		e, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		lit.Elems = append(lit.Elems, e)
		if p.peek().Type != lexer.Comma {
			break
		}
		p.next()
	}
	if _, err := p.expect(lexer.RBracket, "']' closing a list"); err != nil {
		return nil, err
	}
	return lit, nil
}

// parseParenthesizedOrPattern disambiguates `(expr)` from a pattern predicate
// such as `(a)-[:KNOWS]->(b)` used as a boolean expression in WHERE. It first
// attempts to parse a path pattern; if that fails or yields a bare node, it
// backtracks and parses a parenthesized expression.
func (p *Parser) parseParenthesizedOrPattern() (ast.Expr, error) {
	save := p.pos
	part, err := p.parseAnonymousPatternPart(ast.PatternPart{})
	if err == nil && len(part.Rels) > 0 {
		return &ast.PatternPredicate{Pattern: part}, nil
	}
	p.pos = save
	if _, err := p.expect(lexer.LParen, "'('"); err != nil {
		return nil, err
	}
	e, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(lexer.RParen, "')'"); err != nil {
		return nil, err
	}
	return e, nil
}
