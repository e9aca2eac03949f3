package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cypher "repro"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/result"
	"repro/internal/semantic"
	"repro/internal/storage"
	"repro/internal/value"
)

// layerTimes holds, per span name and query class, the durations one traced
// replay saw, in microseconds.
type layerTimes map[string]map[string][]float64

func (t layerTimes) add(layer, class string, d time.Duration) {
	if t[layer] == nil {
		t[layer] = map[string][]float64{}
	}
	t[layer][class] = append(t[layer][class], float64(d.Nanoseconds())/1e3)
}

func (t layerTimes) median(layer, class string) (float64, int) {
	xs := t[layer][class]
	return median(xs), len(xs)
}

// replay runs the workload's request stream in-process on one goroutine, one
// span per call into a layer's public function:
//
//	pipeline
//	  lexer.tokenize → parser.parse → semantic.check → planner.plan →
//	  exec.execute → result.detach
//	core.query                     (Graph.QueryContext on the same request)
//	result.rows → server.encode    (on that result)
//
// parser.Parse lexes for itself, so its span includes a tokenize; the
// parser.parse_us metric subtracts the separately measured one. The layer
// calls run against a bare store, core.query against an engine over a second
// store of the same seed, so a write class changes each exactly once.
func replay(rec *recorder, w *workload, seed int64, store *graph.Graph, g *cypher.Graph, budget time.Duration) (layerTimes, map[string]int, error) {
	times := layerTimes{}
	bytesOut := map[string]int{}
	stream := newStream(w, w.mix, seed, 0, people)
	deadline := time.Now().Add(budget)
	for n := 0; ; n++ {
		// Stop only on a cycle boundary, so the replay holds the classes in
		// the workload's proportions.
		if n%stream.sum == 0 && n > 0 && time.Now().After(deadline) {
			return times, bytesOut, nil
		}
		req := stream.next()
		class := classes[req.class].name
		params, err := core.ConvertParams(req.params)
		if err != nil {
			return nil, nil, err
		}
		rid := rec.newRequest()

		var (
			q   *ast.Query
			pl  *plan.Plan
			tbl *result.Table
		)
		pipeline := rec.begin(rid, 0, "pipeline")
		step := func(name string, fn func() error) error {
			var ferr error
			times.add(name, class, rec.time(rid, pipeline, name, func() { ferr = fn() }))
			return ferr
		}
		err = step("lexer.tokenize", func() error { _, e := lexer.Tokenize(req.text); return e })
		if err == nil {
			err = step("parser.parse", func() (e error) { q, e = parser.Parse(req.text); return })
		}
		if err == nil {
			err = step("semantic.check", func() error { return semantic.Check(q) })
		}
		if err == nil {
			err = step("planner.plan", func() (e error) { pl, e = planner.New(store).Plan(q); return })
		}
		if err == nil {
			err = step("exec.execute", func() (e error) { tbl, e = exec.New(store, params, exec.Options{}).Execute(pl); return })
		}
		if err == nil {
			err = step("result.detach", func() error { tbl.DetachEntities(); return nil })
		}
		rec.end(pipeline)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", class, err)
		}

		var res *cypher.Result
		times.add("core.query", class, rec.time(rid, 0, "core.query", func() {
			res, err = g.QueryContext(context.Background(), req.text, req.params, cypher.QueryOptions{})
		}))
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", class, err)
		}
		var rows [][]any
		times.add("result.rows", class, rec.time(rid, 0, "result.rows", func() { rows = res.Rows() }))
		times.add("server.encode", class, rec.time(rid, 0, "server.encode", func() {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ") // as cypher-serve's writeJSON does
			err = enc.Encode(map[string]any{"columns": res.Columns(), "rows": jsonRows(rows), "count": len(rows)})
			bytesOut[class] = buf.Len()
		}))
		if err != nil {
			return nil, nil, err
		}
	}
}

// sampleRequests draws one request per class of the workload from its
// stream, for the passes that time a fixed set of plans.
func sampleRequests(w *workload, seed int64) []request {
	var out []request
	seen := map[int]bool{}
	s := newStream(w, w.mix, seed, 0, people)
	for n := 0; n < s.sum; n++ {
		if r := s.next(); !seen[r.class] {
			seen[r.class] = true
			out = append(out, r)
		}
	}
	return out
}

func planOf(store *graph.Graph, text string) (*plan.Plan, error) {
	q, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := semantic.Check(q); err != nil {
		return nil, err
	}
	return planner.New(store).Plan(q)
}

// executeTime runs each request's plan reps times under the options and
// returns the total, plus the mallocs per execute of each class. Mallocs are
// counted on a single goroutine between two runtime.ReadMemStats calls, so
// they repeat to within the runtime's own background allocations.
func executeTime(store *graph.Graph, reqs []request, opts exec.Options, reps int) (time.Duration, map[string]float64, error) {
	allocs := map[string]float64{}
	var total time.Duration
	var before, after runtime.MemStats
	for _, req := range reqs {
		pl, err := planOf(store, req.text)
		if err != nil {
			return 0, nil, err
		}
		params, err := core.ConvertParams(req.params)
		if err != nil {
			return 0, nil, err
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := exec.New(store, params, opts).Execute(pl); err != nil {
				return 0, nil, err
			}
		}
		total += time.Since(start)
		runtime.ReadMemStats(&after)
		allocs[classes[req.class].name] = float64(after.Mallocs-before.Mallocs) / float64(reps)
	}
	return total, allocs, nil
}

// pinCost times VersionedStore.Pin+Unpin, the two counter updates every read
// pays, in nanoseconds per pair.
func pinCost(store *graph.Graph) float64 {
	vs := graph.NewVersionedStore(store)
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		vs.Unpin(vs.Pin())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// copyMutation detaches a hook's mutation from live store state.
func copyMutation(m graph.Mutation) graph.Mutation {
	m.Labels = append([]string(nil), m.Labels...)
	if m.Props != nil {
		props := make(map[string]value.Value, len(m.Props))
		for k, v := range m.Props {
			props[k] = v
		}
		m.Props = props
	}
	return m
}

// writePath drives the two layers under a write directly, with the mutation
// batches the write classes really emit:
//
//   - graph: BeginWrite + Publish around one write on a VersionedStore over
//     the store (write_cycle_us is the pair's self time: the span minus the
//     execute inside it). Each BeginWrite replays the previous batch onto the
//     spare version, as the engine's does.
//   - storage: Record the batch, then Append, then Sync, on a Store over an
//     empty directory with fsync always.
func writePath(rec *recorder, w *workload, seed int64, store *graph.Graph, dir string, writes int) (cycleUs, appendUs, syncUs float64, err error) {
	vs := graph.NewVersionedStore(store)
	var batch []graph.Mutation
	store.SetMutationHook(func(m graph.Mutation) {
		vs.Capture(m)
		batch = append(batch, copyMutation(m))
	})
	defer store.SetMutationHook(nil)
	st, err := storage.Open(dir, graph.New(), storage.Options{SyncMode: storage.SyncAlways})
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()

	var writeMix []weighted
	for _, m := range w.mix {
		if classes[classIndex(m.class)].write {
			writeMix = append(writeMix, m)
		}
	}
	s := newStream(w, writeMix, seed, 0, people)
	plans := map[string]*plan.Plan{}
	var cycles, appends, syncs []float64
	for i := 0; i < writes; i++ {
		req := s.next()
		pl := plans[req.text]
		if pl == nil {
			if pl, err = planOf(store, req.text); err != nil {
				return 0, 0, 0, err
			}
			plans[req.text] = pl
		}
		params, err := core.ConvertParams(req.params)
		if err != nil {
			return 0, 0, 0, err
		}
		rid := rec.newRequest()
		batch = batch[:0]
		t0 := time.Now()
		target := vs.BeginWrite()
		t1 := time.Now()
		_, err = exec.New(target, params, exec.Options{}).Execute(pl)
		t2 := time.Now()
		vs.Publish()
		t3 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		id := rec.add(rid, 0, "graph.write_cycle", t0, t3)
		rec.add(rid, id, "exec.execute", t1, t2)
		if i > 0 { // the first BeginWrite clones the whole graph
			cycles = append(cycles, float64((t3.Sub(t0)-t2.Sub(t1)).Nanoseconds())/1e3)
		}

		for _, m := range batch {
			st.Record(m)
		}
		var ticket storage.CommitTicket
		appends = append(appends, float64(rec.time(rid, 0, "storage.append", func() { ticket, err = st.Append() }).Nanoseconds())/1e3)
		if err != nil {
			return 0, 0, 0, err
		}
		syncs = append(syncs, float64(rec.time(rid, 0, "storage.sync", func() { err = st.Sync(ticket) }).Nanoseconds())/1e3)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return median(cycles), median(appends), median(syncs), nil
}

// snapshotBytes is the size of the data directory's newest snapshot.
func snapshotBytes(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no snapshot in %s", dir)
	}
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
