package core

import (
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/result"
	"repro/internal/value"
)

// run executes a query and fails the test on error.
func run(t *testing.T, e *Engine, query string) *Result {
	t.Helper()
	res, err := e.Run(query, nil)
	if err != nil {
		t.Fatalf("query failed: %s\n%v", query, err)
	}
	return res
}

// runParams executes a query with Go parameters and fails the test on error.
func runParams(t *testing.T, e *Engine, query string, params map[string]any) *Result {
	t.Helper()
	res, err := e.RunWithGoParams(query, params)
	if err != nil {
		t.Fatalf("query failed: %s\n%v", query, err)
	}
	return res
}

// rows converts a result into a [][]any using value.ToGo, for compact
// comparison against expectations. Nodes and relationships are mapped to
// their ids.
func rows(res *Result) [][]any {
	out := make([][]any, 0, res.Len())
	for _, row := range res.Rows() {
		conv := make([]any, len(row))
		for i, v := range row {
			conv[i] = simplify(v)
		}
		out = append(out, conv)
	}
	return out
}

func simplify(v value.Value) any {
	switch v.Kind() {
	case value.KindNode:
		n, _ := value.AsNode(v)
		return n.ID()
	case value.KindRelationship:
		r, _ := value.AsRelationship(v)
		return r.ID()
	case value.KindList:
		l, _ := value.AsList(v)
		out := make([]any, l.Len())
		for i, e := range l.Elements() {
			out[i] = simplify(e)
		}
		return out
	default:
		return value.ToGo(v)
	}
}

// expectBag asserts that the result contains exactly the expected rows,
// regardless of order (bag comparison).
func expectBag(t *testing.T, res *Result, want [][]any) {
	t.Helper()
	got := rows(res)
	if len(got) != len(want) {
		t.Fatalf("row count = %d, want %d\ngot:  %v\nwant: %v\nplan:\n%s", len(got), len(want), got, want, res.Plan())
	}
	gotTable := toComparable(t, res.Columns(), got)
	wantTable := toComparable(t, res.Columns(), want)
	if !result.EqualAsBags(gotTable, wantTable) {
		t.Fatalf("result mismatch\ngot:  %v\nwant: %v\nplan:\n%s", got, want, res.Plan())
	}
}

// expectOrdered asserts that the result contains exactly the expected rows in
// order.
func expectOrdered(t *testing.T, res *Result, want [][]any) {
	t.Helper()
	got := rows(res)
	if len(got) != len(want) {
		t.Fatalf("row count = %d, want %d\ngot: %v", len(got), len(want), got)
	}
	for i := range want {
		if !rowEqual(t, got[i], want[i]) {
			t.Fatalf("row %d mismatch\ngot:  %v\nwant: %v", i, got[i], want[i])
		}
	}
}

func rowEqual(t *testing.T, got, want []any) bool {
	t.Helper()
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		gv, err := value.FromGo(got[i])
		if err != nil {
			t.Fatalf("bad got value %v: %v", got[i], err)
		}
		wv, err := value.FromGo(want[i])
		if err != nil {
			t.Fatalf("bad want value %v: %v", want[i], err)
		}
		if value.Compare(gv, wv) != 0 {
			return false
		}
	}
	return true
}

func toComparable(t *testing.T, cols []string, data [][]any) *result.Table {
	t.Helper()
	tbl := result.NewTable(cols...)
	for _, row := range data {
		rec := result.NewRecord()
		for i, c := range cols {
			v, err := value.FromGo(row[i])
			if err != nil {
				t.Fatalf("bad value %v: %v", row[i], err)
			}
			rec.Set(c, v)
		}
		tbl.Add(rec)
	}
	return tbl
}

// columnOf extracts a single column as a sorted []any (helper for set-like
// assertions).
func columnOf(res *Result, col string) []any {
	idx := -1
	for i, c := range res.Columns() {
		if c == col {
			idx = i
		}
	}
	var out []any
	for _, row := range res.Rows() {
		out = append(out, simplify(row[idx]))
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := value.FromGo(out[i])
		b, _ := value.FromGo(out[j])
		return value.Compare(a, b) < 0
	})
	return out
}

// emptyEngine returns an engine over a fresh empty graph.
func emptyEngine() *Engine {
	return NewEngine(graph.New(), Options{})
}
