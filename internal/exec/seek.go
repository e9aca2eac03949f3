package exec

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/result"
	"repro/internal/value"
)

// Index seek evaluation. The three seek operators evaluate their operand
// expressions against the current row (parameters, literals, or variables
// bound by earlier clauses) and enumerate the matching nodes through the
// graph's property indexes — hash buckets for equality and IN, the ordered
// bucket list for ranges and prefixes. The graph layer returns nodes in
// identifier order, the same order the equivalent label-scan-plus-filter
// plan would produce them, so plan choice never changes result order. All
// comparison semantics (ternary logic, null operands, type mismatches)
// mirror the expression evaluator exactly: a seek must return precisely the
// nodes the predicate it replaced would have kept.

// leafNodes enumerates the node set of a pipeline's scan leaf
// (plan.Pipeline.Scan) and names the variable it binds. A leaf seek
// evaluates its operands over the unit row, since no pattern variable is in
// scope at a leaf. ok is false when that evaluation fails; the caller then
// takes the row path, which reports the error identically.
func (ex *Executor) leafNodes(scan plan.Operator) (varName string, nodes []*graph.Node, ok bool) {
	var err error
	switch s := scan.(type) {
	case *plan.AllNodesScan:
		return s.Var, ex.graph.Nodes(), true
	case *plan.NodeByLabelScan:
		return s.Var, ex.graph.NodesByLabel(s.Label), true
	case *plan.NodeIndexSeek:
		varName = s.Var
		nodes, err = ex.indexSeekNodes(s, result.NewSlotted(ex.tab))
	case *plan.NodeIndexRangeSeek:
		varName = s.Var
		nodes, err = ex.rangeSeekNodes(s, result.NewSlotted(ex.tab))
	case *plan.NodeIndexPrefixSeek:
		varName = s.Var
		nodes, err = ex.prefixSeekNodes(s, result.NewSlotted(ex.tab))
	default:
		return "", nil, false
	}
	return varName, nodes, err == nil
}

// indexSeekNodes enumerates the nodes of an equality or IN-list seek.
func (ex *Executor) indexSeekNodes(o *plan.NodeIndexSeek, r result.Record) ([]*graph.Node, error) {
	v, err := ex.evalCtx.Evaluate(o.Value, r)
	if err != nil {
		return nil, err
	}
	if value.IsNull(v) {
		// `p = null` and `p IN null` are unknown for every row.
		return nil, nil
	}
	if !o.In {
		return ex.graph.NodesByLabelProperty(o.Label, o.Property, v), nil
	}
	l, ok := value.AsList(v)
	if !ok {
		// Mirror the evaluator's error for a non-list IN operand.
		return nil, fmt.Errorf("%w: IN requires a list, got %s", eval.ErrTypeError, v.Kind())
	}
	return ex.graph.NodesByLabelPropertyIn(o.Label, o.Property, l.Elements()), nil
}

// rangeSeekNodes enumerates the nodes of a range seek. A null bound makes
// the comparison unknown for every row, so it matches nothing.
func (ex *Executor) rangeSeekNodes(o *plan.NodeIndexRangeSeek, r result.Record) ([]*graph.Node, error) {
	var lo, hi value.Value
	if o.Lo != nil {
		v, err := ex.evalCtx.Evaluate(o.Lo, r)
		if err != nil {
			return nil, err
		}
		if value.IsNull(v) {
			return nil, nil
		}
		lo = v
	}
	if o.Hi != nil {
		v, err := ex.evalCtx.Evaluate(o.Hi, r)
		if err != nil {
			return nil, err
		}
		if value.IsNull(v) {
			return nil, nil
		}
		hi = v
	}
	return ex.graph.NodesByLabelPropertyRange(o.Label, o.Property, lo, o.LoInc, hi, o.HiInc), nil
}

// prefixSeekNodes enumerates the nodes of a STARTS WITH seek. A null or
// non-string prefix makes the predicate unknown for every row (the
// evaluator's lenient treatment), so it matches nothing.
func (ex *Executor) prefixSeekNodes(o *plan.NodeIndexPrefixSeek, r result.Record) ([]*graph.Node, error) {
	v, err := ex.evalCtx.Evaluate(o.Prefix, r)
	if err != nil {
		return nil, err
	}
	s, ok := value.AsString(v)
	if !ok {
		return nil, nil
	}
	return ex.graph.NodesByLabelPropertyPrefix(o.Label, o.Property, s), nil
}
