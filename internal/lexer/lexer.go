package lexer

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Error is a lexical error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("syntax error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes Cypher source text.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New creates a lexer over the given source text.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans the entire input and returns the token stream (terminated by
// an EOF token) or the first lexical error.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Type == EOF {
			return out, nil
		}
	}
}

func (l *Lexer) errorf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *Lexer) peekAt(offset int) rune {
	pos := l.pos
	for i := 0; i < offset; i++ {
		if pos >= len(l.src) {
			return 0
		}
		_, w := utf8.DecodeRuneInString(l.src[pos:])
		pos += w
	}
	if pos >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[pos:])
	return r
}

func (l *Lexer) advance() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, w := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() error {
	for {
		r := l.peek()
		switch {
		case r == 0:
			return nil
		case unicode.IsSpace(r):
			l.advance()
		case r == '/' && l.peekAt(1) == '/':
			for l.peek() != '\n' && l.peek() != 0 {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			for {
				if l.peek() == 0 {
					return &Error{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
				}
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
}

// Next returns the next token in the input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	r := l.peek()
	if r == 0 {
		return Token{Type: EOF, Line: line, Col: col}, nil
	}

	switch {
	case unicode.IsLetter(r) || r == '_':
		return l.scanIdentOrKeyword(line, col), nil
	case unicode.IsDigit(r):
		return l.scanNumber(line, col)
	case r == '\'' || r == '"':
		return l.scanString(line, col)
	case r == '`':
		return l.scanEscapedIdent(line, col)
	case r == '$':
		l.advance()
		if !unicode.IsLetter(l.peek()) && l.peek() != '_' && !unicode.IsDigit(l.peek()) {
			return Token{}, &Error{Line: line, Col: col, Msg: "expected parameter name after '$'"}
		}
		start := l.pos
		for unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_' {
			l.advance()
		}
		name := l.src[start:l.pos]
		return Token{Type: Parameter, Text: "$" + name, StrVal: name, Line: line, Col: col}, nil
	}

	// Punctuation, including two-character operators.
	two := func(t Type, text string) (Token, error) {
		l.advance()
		l.advance()
		return Token{Type: t, Text: text, Line: line, Col: col}, nil
	}
	one := func(t Type, text string) (Token, error) {
		l.advance()
		return Token{Type: t, Text: text, Line: line, Col: col}, nil
	}
	switch r {
	case '(':
		return one(LParen, "(")
	case ')':
		return one(RParen, ")")
	case '[':
		return one(LBracket, "[")
	case ']':
		return one(RBracket, "]")
	case '{':
		return one(LBrace, "{")
	case '}':
		return one(RBrace, "}")
	case ',':
		return one(Comma, ",")
	case ';':
		return one(Semicolon, ";")
	case '|':
		return one(Pipe, "|")
	case ':':
		return one(Colon, ":")
	case '.':
		if l.peekAt(1) == '.' {
			return two(DotDot, "..")
		}
		return one(Dot, ".")
	case '+':
		if l.peekAt(1) == '=' {
			return two(PlusEq, "+=")
		}
		return one(Plus, "+")
	case '-':
		return one(Minus, "-")
	case '*':
		return one(Star, "*")
	case '/':
		return one(Slash, "/")
	case '%':
		return one(Percent, "%")
	case '^':
		return one(Caret, "^")
	case '=':
		if l.peekAt(1) == '~' {
			return two(RegexEq, "=~")
		}
		return one(Eq, "=")
	case '<':
		switch l.peekAt(1) {
		case '>':
			return two(Neq, "<>")
		case '=':
			return two(Le, "<=")
		}
		return one(Lt, "<")
	case '>':
		if l.peekAt(1) == '=' {
			return two(Ge, ">=")
		}
		return one(Gt, ">")
	}
	return Token{}, l.errorf("unexpected character %q", r)
}

func (l *Lexer) scanIdentOrKeyword(line, col int) Token {
	start := l.pos
	for unicode.IsLetter(l.peek()) || unicode.IsDigit(l.peek()) || l.peek() == '_' {
		l.advance()
	}
	text := l.src[start:l.pos]
	upper := strings.ToUpper(text)
	if keywords[upper] {
		return Token{Type: Keyword, Text: upper, StrVal: text, Line: line, Col: col}
	}
	return Token{Type: Ident, Text: text, StrVal: text, Line: line, Col: col}
}

func (l *Lexer) scanEscapedIdent(line, col int) (Token, error) {
	l.advance() // consume opening backtick
	var sb strings.Builder
	for {
		r := l.peek()
		if r == 0 {
			return Token{}, &Error{Line: line, Col: col, Msg: "unterminated escaped identifier"}
		}
		l.advance()
		if r == '`' {
			if l.peek() == '`' { // doubled backtick escapes a backtick
				l.advance()
				sb.WriteRune('`')
				continue
			}
			break
		}
		sb.WriteRune(r)
	}
	return Token{Type: Ident, Text: sb.String(), StrVal: sb.String(), Escaped: true, Line: line, Col: col}, nil
}

// minIntMagnitude is the decimal magnitude of math.MinInt64, which does not
// fit an int64 on its own.
const minIntMagnitude = "9223372036854775808"

func (l *Lexer) scanNumber(line, col int) (Token, error) {
	start := l.pos
	isFloat := false
	for unicode.IsDigit(l.peek()) {
		l.advance()
	}
	// A '.' followed by a digit continues the number; '..' is a range token.
	if l.peek() == '.' && unicode.IsDigit(l.peekAt(1)) {
		isFloat = true
		l.advance()
		for unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		next := l.peekAt(1)
		nextNext := l.peekAt(2)
		if unicode.IsDigit(next) || ((next == '+' || next == '-') && unicode.IsDigit(nextNext)) {
			isFloat = true
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for unicode.IsDigit(l.peek()) {
				l.advance()
			}
		}
	}
	text := l.src[start:l.pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, &Error{Line: line, Col: col, Msg: "invalid float literal " + text}
		}
		return Token{Type: Float, Text: text, FltVal: f, Line: line, Col: col}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		if text == minIntMagnitude {
			return Token{Type: MinIntMagnitude, Text: text, Line: line, Col: col}, nil
		}
		return Token{}, &Error{Line: line, Col: col, Msg: "invalid integer literal " + text}
	}
	return Token{Type: Integer, Text: text, IntVal: i, Line: line, Col: col}, nil
}

func (l *Lexer) scanString(line, col int) (Token, error) {
	quote := l.advance()
	var sb strings.Builder
	for {
		r := l.peek()
		if r == 0 || r == '\n' {
			return Token{}, &Error{Line: line, Col: col, Msg: "unterminated string literal"}
		}
		l.advance()
		if r == quote {
			break
		}
		if r == '\\' {
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteRune('\n')
			case 't':
				sb.WriteRune('\t')
			case 'r':
				sb.WriteRune('\r')
			case 'b':
				sb.WriteRune('\b')
			case 'f':
				sb.WriteRune('\f')
			case '\\', '\'', '"', '`':
				sb.WriteRune(esc)
			case 'u':
				var hex [4]rune
				for i := 0; i < 4; i++ {
					h := l.advance()
					if !isHexDigit(h) {
						return Token{}, &Error{Line: line, Col: col, Msg: "invalid unicode escape"}
					}
					hex[i] = h
				}
				code, err := strconv.ParseUint(string(hex[:]), 16, 32)
				if err != nil {
					return Token{}, &Error{Line: line, Col: col, Msg: "invalid unicode escape"}
				}
				sb.WriteRune(rune(code))
			default:
				return Token{}, &Error{Line: line, Col: col, Msg: fmt.Sprintf("invalid escape sequence \\%c", esc)}
			}
			continue
		}
		sb.WriteRune(r)
	}
	val := sb.String()
	return Token{Type: StringLit, Text: string(quote) + val + string(quote), StrVal: val, Line: line, Col: col}, nil
}

func isHexDigit(r rune) bool {
	return (r >= '0' && r <= '9') || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}
