package eval

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/value"
)

// ScalarFunc is the signature of a built-in scalar function.
type ScalarFunc func(args []value.Value) (value.Value, error)

// scalarFunctions is the registry of non-aggregating built-in functions
// (the set F of base functions the paper parameterises the semantics with).
var scalarFunctions = map[string]ScalarFunc{}

// RegisterFunction adds (or replaces) a scalar function; used by extension
// packages such as the temporal types.
func RegisterFunction(name string, fn ScalarFunc) {
	scalarFunctions[strings.ToLower(name)] = fn
}

// HasFunction reports whether a scalar function with the given name exists.
func HasFunction(name string) bool {
	_, ok := scalarFunctions[strings.ToLower(name)]
	return ok
}

// CallFunction invokes a registered scalar function directly with
// already-evaluated arguments; used by tools and tests.
func CallFunction(name string, args []value.Value) (value.Value, error) {
	fn, ok := scalarFunctions[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("eval: unknown function %q", name)
	}
	return fn(args)
}

func argError(name string, expected string) error {
	return fmt.Errorf("%w: %s expects %s", ErrTypeError, name, expected)
}

func arity(name string, args []value.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("eval: %s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

func init() {
	// --- graph entity functions ---
	RegisterFunction("id", func(args []value.Value) (value.Value, error) {
		if err := arity("id", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("labels", func(args []value.Value) (value.Value, error) {
		if err := arity("labels", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("type", func(args []value.Value) (value.Value, error) {
		if err := arity("type", args, 1); err != nil {
			return nil, err
		}
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		r, ok := value.AsRelationship(args[0])
		if !ok {
			return nil, argError("type", "a relationship")
		}
		return value.NewString(r.RelType()), nil
	})
	RegisterFunction("keys", func(args []value.Value) (value.Value, error) {
		if err := arity("keys", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("properties", func(args []value.Value) (value.Value, error) {
		if err := arity("properties", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("startnode", func(args []value.Value) (value.Value, error) {
		if err := arity("startNode", args, 1); err != nil {
			return nil, err
		}
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		r, ok := value.AsRelationship(args[0])
		if !ok {
			return nil, argError("startNode", "a relationship")
		}
		return relEndpoint(r, true)
	})
	RegisterFunction("endnode", func(args []value.Value) (value.Value, error) {
		if err := arity("endNode", args, 1); err != nil {
			return nil, err
		}
		if value.IsNull(args[0]) {
			return value.Null(), nil
		}
		r, ok := value.AsRelationship(args[0])
		if !ok {
			return nil, argError("endNode", "a relationship")
		}
		return relEndpoint(r, false)
	})
	RegisterFunction("nodes", func(args []value.Value) (value.Value, error) {
		if err := arity("nodes", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("relationships", func(args []value.Value) (value.Value, error) {
		if err := arity("relationships", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("length", func(args []value.Value) (value.Value, error) {
		if err := arity("length", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("size", func(args []value.Value) (value.Value, error) {
		if err := arity("size", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("exists", func(args []value.Value) (value.Value, error) {
		if err := arity("exists", args, 1); err != nil {
			return nil, err
		}
		return value.NewBool(!value.IsNull(args[0])), nil
	})
	RegisterFunction("coalesce", func(args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !value.IsNull(a) {
				return a, nil
			}
		}
		return value.Null(), nil
	})

	// --- list functions ---
	RegisterFunction("head", listFunc("head", func(l value.List) (value.Value, error) {
		if l.Len() == 0 {
			return value.Null(), nil
		}
		return l.At(0), nil
	}))
	RegisterFunction("last", listFunc("last", func(l value.List) (value.Value, error) {
		if l.Len() == 0 {
			return value.Null(), nil
		}
		return l.At(l.Len() - 1), nil
	}))
	RegisterFunction("tail", listFunc("tail", func(l value.List) (value.Value, error) {
		if l.Len() == 0 {
			return value.NewList(), nil
		}
		return value.NewListOf(append([]value.Value(nil), l.Elements()[1:]...)), nil
	}))
	RegisterFunction("reverse", func(args []value.Value) (value.Value, error) {
		if err := arity("reverse", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("range", func(args []value.Value) (value.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("eval: range expects 2 or 3 arguments, got %d", len(args))
		}
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
	RegisterFunction("abs", numericFunc("abs", func(f float64) float64 { return math.Abs(f) }, func(i int64) (int64, bool) {
		if i < 0 {
			return -i, true
		}
		return i, true
	}))
	RegisterFunction("sign", func(args []value.Value) (value.Value, error) {
		if err := arity("sign", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("ceil", floatFunc("ceil", math.Ceil))
	RegisterFunction("floor", floatFunc("floor", math.Floor))
	RegisterFunction("round", floatFunc("round", math.Round))
	RegisterFunction("sqrt", floatFunc("sqrt", math.Sqrt))
	RegisterFunction("exp", floatFunc("exp", math.Exp))
	RegisterFunction("log", floatFunc("log", math.Log))
	RegisterFunction("log10", floatFunc("log10", math.Log10))

	// --- type conversions ---
	RegisterFunction("tointeger", func(args []value.Value) (value.Value, error) {
		if err := arity("toInteger", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("tofloat", func(args []value.Value) (value.Value, error) {
		if err := arity("toFloat", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("toboolean", func(args []value.Value) (value.Value, error) {
		if err := arity("toBoolean", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("tostring", func(args []value.Value) (value.Value, error) {
		if err := arity("toString", args, 1); err != nil {
			return nil, err
		}
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
	RegisterFunction("toupper", stringFunc("toUpper", strings.ToUpper))
	RegisterFunction("tolower", stringFunc("toLower", strings.ToLower))
	RegisterFunction("trim", stringFunc("trim", strings.TrimSpace))
	RegisterFunction("ltrim", stringFunc("lTrim", func(s string) string { return strings.TrimLeft(s, " \t\r\n") }))
	RegisterFunction("rtrim", stringFunc("rTrim", func(s string) string { return strings.TrimRight(s, " \t\r\n") }))
	RegisterFunction("replace", func(args []value.Value) (value.Value, error) {
		if err := arity("replace", args, 3); err != nil {
			return nil, err
		}
		s, old, new_, ok := threeStrings(args)
		if !ok {
			return value.Null(), nil
		}
		return value.NewString(strings.ReplaceAll(s, old, new_)), nil
	})
	RegisterFunction("split", func(args []value.Value) (value.Value, error) {
		if err := arity("split", args, 2); err != nil {
			return nil, err
		}
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
	RegisterFunction("substring", func(args []value.Value) (value.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("eval: substring expects 2 or 3 arguments")
		}
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
	RegisterFunction("left", func(args []value.Value) (value.Value, error) {
		if err := arity("left", args, 2); err != nil {
			return nil, err
		}
		return takeString(args, true)
	})
	RegisterFunction("right", func(args []value.Value) (value.Value, error) {
		if err := arity("right", args, 2); err != nil {
			return nil, err
		}
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
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
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
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
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
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
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
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
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
