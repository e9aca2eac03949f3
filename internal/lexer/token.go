// Package lexer turns Cypher query text into a stream of tokens consumed by
// the parser. The token set covers the core language of the paper (Figures 3
// and 5) plus the update clauses and the ORDER BY / SKIP / LIMIT modifiers.
package lexer

import "fmt"

// Type identifies the kind of a token.
type Type int

// Token types.
const (
	EOF Type = iota
	Ident
	Keyword
	Integer
	// MinIntMagnitude is the literal 9223372036854775808 (one past
	// math.MaxInt64), valid only directly under a unary minus, where it is
	// math.MinInt64.
	MinIntMagnitude
	Float
	StringLit
	Parameter // $name

	// Punctuation and operators.
	LParen    // (
	RParen    // )
	LBracket  // [
	RBracket  // ]
	LBrace    // {
	RBrace    // }
	Comma     // ,
	Dot       // .
	DotDot    // ..
	Colon     // :
	Semicolon // ;
	Pipe      // |
	Plus      // +
	PlusEq    // +=
	Minus     // -
	Star      // *
	Slash     // /
	Percent   // %
	Caret     // ^
	Eq        // =
	Neq       // <>
	Lt        // <
	Gt        // >
	Le        // <=
	Ge        // >=
	RegexEq   // =~
)

// Token is a lexical token with its source position (1-based line and column).
type Token struct {
	Type    Type
	Text    string // raw text; for keywords the upper-cased form
	Line    int
	Col     int
	IntVal  int64   // valid when Type == Integer
	FltVal  float64 // valid when Type == Float
	StrVal  string  // unescaped value for StringLit, name for Parameter/Ident
	Escaped bool    // true for backtick-escaped identifiers
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Type {
	case EOF:
		return "end of input"
	case StringLit:
		return fmt.Sprintf("string %q", t.StrVal)
	case Parameter:
		return "$" + t.StrVal
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Is reports whether the token is the given keyword (case-insensitive match
// was already performed by the lexer; keywords are stored upper-case).
func (t Token) Is(keyword string) bool {
	return t.Type == Keyword && t.Text == keyword
}

// keywords is the set of reserved words recognised by the lexer. Cypher
// keywords are case-insensitive.
var keywords = map[string]bool{
	"MATCH": true, "OPTIONAL": true, "WHERE": true, "WITH": true,
	"RETURN": true, "UNWIND": true, "AS": true, "UNION": true, "ALL": true,
	"CREATE": true, "MERGE": true, "SET": true, "DELETE": true,
	"DETACH": true, "REMOVE": true, "ORDER": true, "BY": true, "SKIP": true,
	"LIMIT": true, "DISTINCT": true, "AND": true, "OR": true, "XOR": true,
	"NOT": true, "IN": true, "STARTS": true, "ENDS": true, "CONTAINS": true,
	"IS": true, "NULL": true, "TRUE": true, "FALSE": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "ASC": true,
	"DESC": true, "ASCENDING": true, "DESCENDING": true, "ON": true,
	"EXISTS": true, "CALL": true, "YIELD": true, "FROM": true, "GRAPH": true,
}
