package eval

import (
	"fmt"

	"repro/internal/value"
)

// aggregateNames is the set of aggregating functions. Their semantics follow
// SQL (and the paper's Section 3 examples): null inputs are skipped, count(*)
// counts rows, and DISTINCT de-duplicates inputs before aggregation.
var aggregateNames = map[string]bool{
	"count":   true,
	"collect": true,
	"sum":     true,
	"avg":     true,
	"min":     true,
	"max":     true,
}

// IsAggregate reports whether the named function is an aggregating function.
func IsAggregate(name string) bool { return aggregateNames[name] }

// Aggregator accumulates values for one aggregation expression within one
// group.
type Aggregator interface {
	// Add feeds one input value (already evaluated) into the aggregate.
	Add(v value.Value) error
	// Merge folds another partial aggregate of the same kind into this one.
	// The parallel executor builds one aggregator per morsel and combines
	// them at the barrier in morsel order, so merged results (including
	// order-sensitive ones like collect) match serial execution exactly.
	Merge(other Aggregator) error
	// Result returns the aggregate for the group.
	Result() value.Value
}

// mergeTypeError reports an attempt to merge aggregators of different kinds;
// it can only happen through a programming error in the parallel executor.
func mergeTypeError(dst, src Aggregator) error {
	return fmt.Errorf("eval: cannot merge aggregator %T into %T", src, dst)
}

// NewAggregator creates an aggregator for the named function. Distinct wraps
// the aggregator so that equivalent input values are only counted once.
func NewAggregator(name string, distinct bool) (Aggregator, error) {
	var agg Aggregator
	switch name {
	case "count":
		agg = &countAgg{}
	case "collect":
		agg = &collectAgg{}
	case "sum":
		agg = &sumAgg{}
	case "avg":
		agg = &avgAgg{}
	case "min":
		agg = &minMaxAgg{min: true}
	case "max":
		agg = &minMaxAgg{min: false}
	default:
		return nil, fmt.Errorf("eval: unknown aggregating function %q", name)
	}
	if distinct {
		return &distinctAgg{inner: agg, seen: map[string]bool{}}, nil
	}
	return agg, nil
}

// NewCountStarAggregator returns the aggregator for count(*), which counts
// rows rather than non-null values.
func NewCountStarAggregator() Aggregator { return &CountStarAgg{} }

type countAgg struct{ n int64 }

func (a *countAgg) Add(v value.Value) error {
	if !value.IsNull(v) {
		a.n++
	}
	return nil
}
func (a *countAgg) Result() value.Value { return value.NewInt(a.n) }

func (a *countAgg) Merge(other Aggregator) error {
	o, ok := other.(*countAgg)
	if !ok {
		return mergeTypeError(a, other)
	}
	a.n += o.n
	return nil
}

// CountStarAgg is count(*)'s aggregator. Exported so that a caller that
// knows it holds one can count a row with Inc instead of an Add through the
// interface.
type CountStarAgg struct{ n int64 }

// Inc counts one row.
func (a *CountStarAgg) Inc() { a.n++ }

func (a *CountStarAgg) Add(value.Value) error { a.n++; return nil }
func (a *CountStarAgg) Result() value.Value   { return value.NewInt(a.n) }

func (a *CountStarAgg) Merge(other Aggregator) error {
	o, ok := other.(*CountStarAgg)
	if !ok {
		return mergeTypeError(a, other)
	}
	a.n += o.n
	return nil
}

type collectAgg struct{ vals []value.Value }

func (a *collectAgg) Add(v value.Value) error {
	if !value.IsNull(v) {
		a.vals = append(a.vals, v)
	}
	return nil
}
func (a *collectAgg) Result() value.Value { return value.NewListOf(a.vals) }

func (a *collectAgg) Merge(other Aggregator) error {
	o, ok := other.(*collectAgg)
	if !ok {
		return mergeTypeError(a, other)
	}
	a.vals = append(a.vals, o.vals...)
	return nil
}

type sumAgg struct {
	sum value.Value
	any bool
}

func (a *sumAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	if !value.IsNumber(v) {
		return fmt.Errorf("%w: sum() requires numbers, got %s", ErrTypeError, v.Kind())
	}
	if !a.any {
		a.sum = v
		a.any = true
		return nil
	}
	s, err := value.Add(a.sum, v)
	if err != nil {
		return err
	}
	a.sum = s
	return nil
}
func (a *sumAgg) Result() value.Value {
	if !a.any {
		return value.NewInt(0)
	}
	return a.sum
}

func (a *sumAgg) Merge(other Aggregator) error {
	o, ok := other.(*sumAgg)
	if !ok {
		return mergeTypeError(a, other)
	}
	if !o.any {
		return nil
	}
	return a.Add(o.sum)
}

type avgAgg struct {
	sum   float64
	count int64
}

func (a *avgAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	f, ok := value.AsFloat(v)
	if !ok {
		return fmt.Errorf("%w: avg() requires numbers, got %s", ErrTypeError, v.Kind())
	}
	a.sum += f
	a.count++
	return nil
}
func (a *avgAgg) Result() value.Value {
	if a.count == 0 {
		return value.Null()
	}
	return value.NewFloat(a.sum / float64(a.count))
}

func (a *avgAgg) Merge(other Aggregator) error {
	o, ok := other.(*avgAgg)
	if !ok {
		return mergeTypeError(a, other)
	}
	a.sum += o.sum
	a.count += o.count
	return nil
}

type minMaxAgg struct {
	min  bool
	best value.Value
}

func (a *minMaxAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	if a.best == nil {
		a.best = v
		return nil
	}
	cmp := value.Compare(v, a.best)
	if (a.min && cmp < 0) || (!a.min && cmp > 0) {
		a.best = v
	}
	return nil
}
func (a *minMaxAgg) Result() value.Value {
	if a.best == nil {
		return value.Null()
	}
	return a.best
}

func (a *minMaxAgg) Merge(other Aggregator) error {
	o, ok := other.(*minMaxAgg)
	if !ok || a.min != o.min {
		return mergeTypeError(a, other)
	}
	if o.best == nil {
		return nil
	}
	return a.Add(o.best)
}

type distinctAgg struct {
	inner Aggregator
	seen  map[string]bool
	// order keeps the distinct values in first-seen order so that a merge
	// can replay the other side's values (deduplicating against this side)
	// without re-evaluating any input rows.
	order []value.Value
	// keyBuf is the reused key-encoding buffer; already-seen values are
	// rejected without materialising a key string (m[string(buf)] lookups
	// do not allocate).
	keyBuf []byte
}

func (a *distinctAgg) Add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	a.keyBuf = value.AppendGroupKey(a.keyBuf[:0], v)
	if a.seen[string(a.keyBuf)] {
		return nil
	}
	a.seen[string(a.keyBuf)] = true
	a.order = append(a.order, v)
	return a.inner.Add(v)
}

func (a *distinctAgg) Merge(other Aggregator) error {
	o, ok := other.(*distinctAgg)
	if !ok {
		return mergeTypeError(a, other)
	}
	for _, v := range o.order {
		if err := a.Add(v); err != nil {
			return err
		}
	}
	return nil
}

func (a *distinctAgg) Result() value.Value { return a.inner.Result() }
