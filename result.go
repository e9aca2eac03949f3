package cypher

import (
	"repro/internal/core"
	"repro/internal/value"
)

// Result is the outcome of running a query: an ordered list of columns and a
// bag of rows.
type Result struct {
	inner *core.Result
}

// Columns returns the result column names in order.
func (r *Result) Columns() []string { return r.inner.Columns() }

// Len returns the number of rows.
func (r *Result) Len() int { return r.inner.Len() }

// Plan returns the textual form of the plan that produced the result.
func (r *Result) Plan() string { return r.inner.Plan() }

// ReadOnly reports whether the query contained no updating clauses.
func (r *Result) ReadOnly() bool { return r.inner.ReadOnly }

// Parallelism reports how many workers executed the query (1 for a serial
// run; >1 when the engine chose morsel-driven parallel execution).
func (r *Result) Parallelism() int { return r.inner.Parallelism }

// Rows returns every row as native Go values (graph entities are returned as
// Node, Relationship and Path views).
func (r *Result) Rows() [][]any {
	out := make([][]any, 0, r.Len())
	for _, row := range r.inner.Rows() {
		conv := make([]any, len(row))
		for i, v := range row {
			conv[i] = value.ToGo(v)
		}
		out = append(out, conv)
	}
	return out
}

// Values returns every row as Cypher values.
func (r *Result) Values() [][]Value { return r.inner.Rows() }

// Records returns every row as a map from column name to native Go value.
func (r *Result) Records() []map[string]any {
	cols := r.Columns()
	out := make([]map[string]any, 0, r.Len())
	for _, row := range r.inner.Rows() {
		rec := make(map[string]any, len(cols))
		for i, c := range cols {
			rec[c] = value.ToGo(row[i])
		}
		out = append(out, rec)
	}
	return out
}

// String renders the result as an ASCII table in the layout used by the
// paper's figures.
func (r *Result) String() string { return r.inner.Table.String() }
