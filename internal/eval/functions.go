package eval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/value"
)

// ScalarFunc is the signature of a built-in scalar function. It is only
// called with a number of arguments its registered Arity accepts.
type ScalarFunc func(args []value.Value) (value.Value, error)

// Arity is the number of arguments a function accepts: Min through Max, or
// Min or more when Max is negative.
type Arity struct{ Min, Max int }

// Args is the arity of a function that takes exactly n arguments.
func Args(n int) Arity { return Arity{Min: n, Max: n} }

// Accepts reports whether a call with n arguments fits the arity.
func (a Arity) Accepts(n int) bool { return n >= a.Min && (a.Max < 0 || n <= a.Max) }

// String renders the arity for error messages: "1", "2 or 3", "at least 1".
func (a Arity) String() string {
	switch {
	case a.Max < 0:
		return fmt.Sprintf("at least %d", a.Min)
	case a.Min == a.Max:
		return strconv.Itoa(a.Min)
	case a.Max == a.Min+1:
		return fmt.Sprintf("%d or %d", a.Min, a.Max)
	default:
		return fmt.Sprintf("%d to %d", a.Min, a.Max)
	}
}

// scalarFunction is one registry entry.
type scalarFunction struct {
	fn    ScalarFunc
	arity Arity
}

// scalarFunctions is the registry of non-aggregating built-in functions
// (the set F of base functions the paper parameterises the semantics with).
var scalarFunctions = map[string]scalarFunction{}

// RegisterFunction adds (or replaces) a scalar function taking the given
// number of arguments; used by extension packages such as the temporal
// types.
func RegisterFunction(name string, arity Arity, fn ScalarFunc) {
	scalarFunctions[strings.ToLower(name)] = scalarFunction{fn: fn, arity: arity}
}

// HasFunction reports whether a scalar function with the given name exists.
func HasFunction(name string) bool {
	_, ok := scalarFunctions[strings.ToLower(name)]
	return ok
}

// FunctionArity returns the arity of a registered scalar function or
// aggregate (every aggregate takes one argument; count(*) is not a call).
func FunctionArity(name string) (Arity, bool) {
	name = strings.ToLower(name)
	if IsAggregate(name) {
		return Args(1), true
	}
	f, ok := scalarFunctions[name]
	return f.arity, ok
}

// ArityError describes a call of name with n arguments that its arity does
// not accept, or returns nil when it does.
func ArityError(name string, a Arity, n int) error {
	if a.Accepts(n) {
		return nil
	}
	return fmt.Errorf("%s expects %s argument(s), got %d", name, a, n)
}

// CallFunction invokes a registered scalar function directly with
// already-evaluated arguments; used by tools and tests.
func CallFunction(name string, args []value.Value) (value.Value, error) {
	f, ok := scalarFunctions[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("eval: unknown function %q", name)
	}
	if err := ArityError(name, f.arity, len(args)); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return f.fn(args)
}

func argError(name string, expected string) error {
	return fmt.Errorf("%w: %s expects %s", ErrTypeError, name, expected)
}

func init() {
	// --- graph entity functions ---
	RegisterFunction("id", Args(1), func(args []value.Value) (value.Value, error) {
		switch {
		case value.IsNull(args[0]):
			return value.Null(), nil
		case args[0].Kind() == value.KindNode:
			n, _ := value.AsNode(args[0])
			return value.NewInt(n.ID()), nil
		case args[0].Kind() == value.KindRelationship:
			r, _ := value.AsRelationship(args[0])
			return value.NewInt(r.ID()), nil
		}
		return nil, argError("id", "a node or relationship")
	})
	RegisterFunction("labels", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		n, ok := value.AsNode(args[0])
		if !ok {
			return nil, argError("labels", "a node")
		}
		labels := n.Labels()
		out := make([]value.Value, len(labels))
		for i, l := range labels {
			out[i] = value.NewString(l)
		}
		return value.NewListOf(out), nil
	})
	RegisterFunction("type", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		r, ok := value.AsRelationship(args[0])
		if !ok {
			return nil, argError("type", "a relationship")
		}
		return value.NewString(r.RelType()), nil
	})
	RegisterFunction("keys", Args(1), func(args []value.Value) (value.Value, error) {
		var keys []string
		switch {
		case value.IsNull(args[0]):
			return value.Null(), nil
		case args[0].Kind() == value.KindNode:
			n, _ := value.AsNode(args[0])
			keys = n.PropertyKeys()
		case args[0].Kind() == value.KindRelationship:
			r, _ := value.AsRelationship(args[0])
			keys = r.PropertyKeys()
		case args[0].Kind() == value.KindMap:
			m, _ := value.AsMap(args[0])
			keys = m.Keys()
		default:
			return nil, argError("keys", "a node, relationship or map")
		}
		out := make([]value.Value, len(keys))
		for i, k := range keys {
			out[i] = value.NewString(k)
		}
		return value.NewListOf(out), nil
	})
	RegisterFunction("properties", Args(1), func(args []value.Value) (value.Value, error) {
		entries := map[string]value.Value{}
		switch {
		case value.IsNull(args[0]):
			return value.Null(), nil
		case args[0].Kind() == value.KindNode:
			n, _ := value.AsNode(args[0])
			for _, k := range n.PropertyKeys() {
				entries[k] = n.Property(k)
			}
		case args[0].Kind() == value.KindRelationship:
			r, _ := value.AsRelationship(args[0])
			for _, k := range r.PropertyKeys() {
				entries[k] = r.Property(k)
			}
		case args[0].Kind() == value.KindMap:
			return args[0], nil
		default:
			return nil, argError("properties", "a node, relationship or map")
		}
		return value.NewMap(entries), nil
	})
	RegisterFunction("startnode", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		r, ok := value.AsRelationship(args[0])
		if !ok {
			return nil, argError("startNode", "a relationship")
		}
		return relEndpoint(r, true)
	})
	RegisterFunction("endnode", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		r, ok := value.AsRelationship(args[0])
		if !ok {
			return nil, argError("endNode", "a relationship")
		}
		return relEndpoint(r, false)
	})
	RegisterFunction("nodes", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		p, ok := value.AsPath(args[0])
		if !ok {
			return nil, argError("nodes", "a path")
		}
		out := make([]value.Value, len(p.Nodes))
		for i, n := range p.Nodes {
			out[i] = value.NewNode(n)
		}
		return value.NewListOf(out), nil
	})
	RegisterFunction("relationships", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		p, ok := value.AsPath(args[0])
		if !ok {
			return nil, argError("relationships", "a path")
		}
		out := make([]value.Value, len(p.Rels))
		for i, r := range p.Rels {
			out[i] = value.NewRelationship(r)
		}
		return value.NewListOf(out), nil
	})
	RegisterFunction("length", Args(1), func(args []value.Value) (value.Value, error) {
		switch {
		case value.IsNull(args[0]):
			return value.Null(), nil
		case args[0].Kind() == value.KindPath:
			p, _ := value.AsPath(args[0])
			return value.NewInt(int64(p.Length())), nil
		case args[0].Kind() == value.KindList:
			l, _ := value.AsList(args[0])
			return value.NewInt(int64(l.Len())), nil
		case args[0].Kind() == value.KindString:
			s, _ := value.AsString(args[0])
			return value.NewInt(int64(utf8.RuneCountInString(s))), nil
		}
		return nil, argError("length", "a path, list or string")
	})
	RegisterFunction("size", Args(1), func(args []value.Value) (value.Value, error) {
		switch {
		case value.IsNull(args[0]):
			return value.Null(), nil
		case args[0].Kind() == value.KindList:
			l, _ := value.AsList(args[0])
			return value.NewInt(int64(l.Len())), nil
		case args[0].Kind() == value.KindString:
			s, _ := value.AsString(args[0])
			return value.NewInt(int64(utf8.RuneCountInString(s))), nil
		case args[0].Kind() == value.KindMap:
			m, _ := value.AsMap(args[0])
			return value.NewInt(int64(m.Len())), nil
		}
		return nil, argError("size", "a list, string or map")
	})
	RegisterFunction("exists", Args(1), func(args []value.Value) (value.Value, error) {
		return value.NewBool(!value.IsNull(args[0])), nil
	})
	RegisterFunction("coalesce", Arity{Min: 1, Max: -1}, func(args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !value.IsNull(a) {
				return a, nil
			}
		}
		return value.Null(), nil
	})

	// --- list functions ---
	RegisterFunction("head", Args(1), listFunc("head", func(l value.List) (value.Value, error) {
		if l.Len() == 0 {
			return value.Null(), nil
		}
		return l.At(0), nil
	}))
	RegisterFunction("last", Args(1), listFunc("last", func(l value.List) (value.Value, error) {
		if l.Len() == 0 {
			return value.Null(), nil
		}
		return l.At(l.Len() - 1), nil
	}))
	RegisterFunction("tail", Args(1), listFunc("tail", func(l value.List) (value.Value, error) {
		if l.Len() == 0 {
			return value.NewList(), nil
		}
		return value.NewListOf(append([]value.Value(nil), l.Elements()[1:]...)), nil
	}))
	RegisterFunction("reverse", Args(1), func(args []value.Value) (value.Value, error) {
		switch {
		case value.IsNull(args[0]):
			return value.Null(), nil
		case args[0].Kind() == value.KindString:
			s, _ := value.AsString(args[0])
			runes := []rune(s)
			for i, j := 0, len(runes)-1; i < j; i, j = i+1, j-1 {
				runes[i], runes[j] = runes[j], runes[i]
			}
			return value.NewString(string(runes)), nil
		case args[0].Kind() == value.KindList:
			l, _ := value.AsList(args[0])
			out := make([]value.Value, l.Len())
			for i := 0; i < l.Len(); i++ {
				out[l.Len()-1-i] = l.At(i)
			}
			return value.NewListOf(out), nil
		}
		return nil, argError("reverse", "a list or string")
	})
	RegisterFunction("range", Arity{Min: 2, Max: 3}, func(args []value.Value) (value.Value, error) {
		for _, a := range args {
			if value.IsNull(a) {
				return value.Null(), nil
			}
		}
		from, ok1 := value.AsInt(args[0])
		to, ok2 := value.AsInt(args[1])
		step := int64(1)
		ok3 := true
		if len(args) == 3 {
			step, ok3 = value.AsInt(args[2])
		}
		if !ok1 || !ok2 || !ok3 {
			return nil, argError("range", "integer arguments")
		}
		if step == 0 {
			return nil, fmt.Errorf("eval: range step cannot be zero")
		}
		var out []value.Value
		if step > 0 {
			for i := from; i <= to; i += step {
				out = append(out, value.NewInt(i))
			}
		} else {
			for i := from; i >= to; i += step {
				out = append(out, value.NewInt(i))
			}
		}
		return value.NewListOf(out), nil
	})

	// --- numeric functions ---
	RegisterFunction("abs", Args(1), numericFunc("abs", func(f float64) float64 { return math.Abs(f) }, func(i int64) (int64, bool) {
		if i < 0 {
			return -i, true
		}
		return i, true
	}))
	RegisterFunction("sign", Args(1), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		f, ok := value.AsFloat(args[0])
		if !ok {
			return nil, argError("sign", "a number")
		}
		switch {
		case f > 0:
			return value.NewInt(1), nil
		case f < 0:
			return value.NewInt(-1), nil
		default:
			return value.NewInt(0), nil
		}
	})
	RegisterFunction("ceil", Args(1), floatFunc("ceil", math.Ceil))
	RegisterFunction("floor", Args(1), floatFunc("floor", math.Floor))
	RegisterFunction("round", Args(1), floatFunc("round", math.Round))
	RegisterFunction("sqrt", Args(1), floatFunc("sqrt", math.Sqrt))
	RegisterFunction("exp", Args(1), floatFunc("exp", math.Exp))
	RegisterFunction("log", Args(1), floatFunc("log", math.Log))
	RegisterFunction("log10", Args(1), floatFunc("log10", math.Log10))

	// --- type conversions ---
	RegisterFunction("tointeger", Args(1), func(args []value.Value) (value.Value, error) {
		switch v := args[0]; {
		case value.IsNull(v):
			return value.Null(), nil
		case v.Kind() == value.KindInt:
			return v, nil
		case v.Kind() == value.KindFloat:
			f, _ := value.AsFloat(v)
			return value.NewInt(int64(f)), nil
		case v.Kind() == value.KindString:
			s, _ := value.AsString(v)
			if i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
				return value.NewInt(i), nil
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
				return value.NewInt(int64(f)), nil
			}
			return value.Null(), nil
		}
		return nil, argError("toInteger", "a number or string")
	})
	RegisterFunction("tofloat", Args(1), func(args []value.Value) (value.Value, error) {
		switch v := args[0]; {
		case value.IsNull(v):
			return value.Null(), nil
		case v.Kind() == value.KindFloat:
			return v, nil
		case v.Kind() == value.KindInt:
			f, _ := value.AsFloat(v)
			return value.NewFloat(f), nil
		case v.Kind() == value.KindString:
			s, _ := value.AsString(v)
			if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
				return value.NewFloat(f), nil
			}
			return value.Null(), nil
		}
		return nil, argError("toFloat", "a number or string")
	})
	RegisterFunction("toboolean", Args(1), func(args []value.Value) (value.Value, error) {
		switch v := args[0]; {
		case value.IsNull(v):
			return value.Null(), nil
		case v.Kind() == value.KindBool:
			return v, nil
		case v.Kind() == value.KindString:
			s, _ := value.AsString(v)
			switch strings.ToLower(strings.TrimSpace(s)) {
			case "true":
				return value.NewBool(true), nil
			case "false":
				return value.NewBool(false), nil
			}
			return value.Null(), nil
		}
		return nil, argError("toBoolean", "a boolean or string")
	})
	RegisterFunction("tostring", Args(1), func(args []value.Value) (value.Value, error) {
		v := args[0]
		if value.IsNull(v) {
			return value.Null(), nil
		}
		if s, ok := value.AsString(v); ok {
			return value.NewString(s), nil
		}
		return value.NewString(v.String()), nil
	})

	// --- string functions ---
	RegisterFunction("toupper", Args(1), stringFunc("toUpper", strings.ToUpper))
	RegisterFunction("tolower", Args(1), stringFunc("toLower", strings.ToLower))
	RegisterFunction("trim", Args(1), stringFunc("trim", strings.TrimSpace))
	RegisterFunction("ltrim", Args(1), stringFunc("lTrim", func(s string) string { return strings.TrimLeft(s, " \t\r\n") }))
	RegisterFunction("rtrim", Args(1), stringFunc("rTrim", func(s string) string { return strings.TrimRight(s, " \t\r\n") }))
	RegisterFunction("replace", Args(3), func(args []value.Value) (value.Value, error) {
		s, old, new_, ok := threeStrings(args)
		if !ok {
			return value.Null(), nil
		}
		return value.NewString(strings.ReplaceAll(s, old, new_)), nil
	})
	RegisterFunction("split", Args(2), func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) || value.IsNull(args[1]) {
			return value.Null(), nil
		}
		s, ok1 := value.AsString(args[0])
		sep, ok2 := value.AsString(args[1])
		if !ok1 || !ok2 {
			return nil, argError("split", "string arguments")
		}
		parts := strings.Split(s, sep)
		out := make([]value.Value, len(parts))
		for i, p := range parts {
			out[i] = value.NewString(p)
		}
		return value.NewListOf(out), nil
	})
	RegisterFunction("substring", Arity{Min: 2, Max: 3}, func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		s, ok := value.AsString(args[0])
		if !ok {
			return nil, argError("substring", "a string")
		}
		start, ok := value.AsInt(args[1])
		if !ok {
			return nil, argError("substring", "an integer start")
		}
		runes := []rune(s)
		if start < 0 || start > int64(len(runes)) {
			return value.NewString(""), nil
		}
		end := int64(len(runes))
		if len(args) == 3 {
			n, ok := value.AsInt(args[2])
			if !ok {
				return nil, argError("substring", "an integer length")
			}
			if start+n < end {
				end = start + n
			}
		}
		return value.NewString(string(runes[start:end])), nil
	})
	RegisterFunction("left", Args(2), func(args []value.Value) (value.Value, error) {
		return takeString(args, true)
	})
	RegisterFunction("right", Args(2), func(args []value.Value) (value.Value, error) {
		return takeString(args, false)
	})
}

func relEndpoint(r value.Relationship, start bool) (value.Value, error) {
	// The relationship interface only exposes endpoint identifiers; concrete
	// graph relationships expose the nodes directly.
	type endpoints interface {
		StartEndNodes() (value.Node, value.Node)
	}
	if ep, ok := r.(endpoints); ok {
		s, e := ep.StartEndNodes()
		if start {
			return value.NewNode(s), nil
		}
		return value.NewNode(e), nil
	}
	return nil, fmt.Errorf("eval: relationship does not expose its endpoints")
}

func listFunc(name string, fn func(value.List) (value.Value, error)) ScalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		l, ok := value.AsList(args[0])
		if !ok {
			return nil, argError(name, "a list")
		}
		return fn(l)
	}
}

func floatFunc(name string, fn func(float64) float64) ScalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		f, ok := value.AsFloat(args[0])
		if !ok {
			return nil, argError(name, "a number")
		}
		return value.NewFloat(fn(f)), nil
	}
}

func numericFunc(name string, ffn func(float64) float64, ifn func(int64) (int64, bool)) ScalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		if i, ok := value.AsInt(args[0]); ok {
			if r, ok2 := ifn(i); ok2 {
				return value.NewInt(r), nil
			}
		}
		f, ok := value.AsFloat(args[0])
		if !ok {
			return nil, argError(name, "a number")
		}
		return value.NewFloat(ffn(f)), nil
	}
}

func stringFunc(name string, fn func(string) string) ScalarFunc {
	return func(args []value.Value) (value.Value, error) {
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		s, ok := value.AsString(args[0])
		if !ok {
			return nil, argError(name, "a string")
		}
		return value.NewString(fn(s)), nil
	}
}

func threeStrings(args []value.Value) (a, b, c string, ok bool) {
	for _, x := range args {
		if value.IsNull(x) {
			return "", "", "", false
		}
	}
	a, ok1 := value.AsString(args[0])
	b, ok2 := value.AsString(args[1])
	c, ok3 := value.AsString(args[2])
	return a, b, c, ok1 && ok2 && ok3
}

func takeString(args []value.Value, fromLeft bool) (value.Value, error) {
	if value.IsNull(args[0]) || value.IsNull(args[1]) {
		return value.Null(), nil
	}
	s, ok1 := value.AsString(args[0])
	n, ok2 := value.AsInt(args[1])
	if !ok1 || !ok2 {
		return nil, argError("left/right", "a string and an integer")
	}
	runes := []rune(s)
	if n < 0 {
		return nil, fmt.Errorf("eval: left/right length must be non-negative")
	}
	if n > int64(len(runes)) {
		n = int64(len(runes))
	}
	if fromLeft {
		return value.NewString(string(runes[:n])), nil
	}
	return value.NewString(string(runes[int64(len(runes))-n:])), nil
}
