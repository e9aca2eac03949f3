package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	cypher "repro"
	"repro/internal/exec"
)

// setups is how many times a run brings the workload's servers up: one
// reading of a start-up is noisy, so setup_s is the median of three, and the
// third set-up is the one the window is measured on.
const setups = 3

// record is one workload's result in one run; -out appends it as a JSON line.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   metrics           `json:"metrics"`
	Env       map[string]string `json:"env"`
}

func (r *record) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// runWorkload sets the workload up, measures one window, checks what came
// back and returns the metrics: end-to-end ones with tracing off, per-layer
// ones with it on. Every server it started is dead when it returns.
func (b *bench) runWorkload(ctx context.Context, w *workload, dataDir string, gateBad map[string]bool) (*record, error) {
	rec := &record{Workload: w.name, Seed: b.seed, Trace: b.traced, Seconds: b.window.Seconds(), Correct: true, Metrics: metrics{}}
	m := rec.Metrics
	for _, c := range w.classesOf() {
		if gateBad[c.name] {
			rec.problem("class %s: engine and reference semantics disagree on the %d-person graph", c.name, gatePeople)
		}
	}

	// Everything timed runs on one processor (affinity.go says why); what
	// follows the servers' death — reopening, the answer check, the
	// in-process layers — has the machine back.
	if err := setAffinity(b.cpus.oneCPU()); err != nil {
		return nil, err
	}
	maxProcs := runtime.GOMAXPROCS(1)

	// Set-up: copy the data, start the servers, wait until they are ready,
	// warm them up. The stream continues across set-ups, so no request repeats.
	l := &load{stream: newStream(w, w.mix, b.seed, 0, people), client: newClient()}
	defer func() {
		if l.topo != nil {
			l.topo.kill()
		}
	}()
	var setupTimes []float64
	var peakRSS int64 // over all the servers this run starts
	for i := 0; i < setups; i++ {
		if l.topo != nil {
			l.topo.kill()
		}
		sctx, cancel := context.WithTimeout(ctx, 90*time.Second)
		start := time.Now()
		topo, err := b.start(sctx, w, dataDir, filepath.Join(b.tmp, fmt.Sprintf("%s-%d", w.name, i)))
		if err != nil {
			cancel()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		l.topo, l.acks = topo, nil
		if w.rw {
			l.acks = newAckLog()
		}
		warm, err := l.run(sctx, b.warmup())
		cancel()
		if err != nil {
			return nil, fmt.Errorf("warm-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		peakRSS = max(peakRSS, warm.peakRSS)
		for _, e := range warm.errors {
			rec.problem("warm-up: %s", e)
		}
	}
	m.set("setup_s", median(setupTimes), len(setupTimes))
	topo, acks := l.topo, l.acks

	// The window. The watchdog turns a wedged server into a failed run.
	wctx, cancel := context.WithTimeout(ctx, b.window+60*time.Second)
	defer cancel()
	l.keep = true
	if w.name == "mixed-rw" {
		l.checkpointAt = b.window * 3 / 10
	}
	before, err := topo.allStats(wctx)
	if err != nil {
		return nil, err
	}
	var spans *recorder
	if b.traced {
		spans = newRecorder()
		l.rec = spans
	}
	res, err := l.run(wctx, b.window)
	if err != nil {
		return nil, err
	}
	after, err := topo.allStats(wctx)
	if err != nil {
		return nil, err
	}
	all := res.samples
	for _, e := range res.errors {
		rec.problem("request failed: %s", e)
	}
	rec.Attempted = len(all)
	for _, s := range all {
		if !s.ok {
			rec.Failed++
		}
	}
	if n := len(latencies(all, anySample)); supportedPercentile(n) < 95 {
		rec.problem("%d samples cannot support a 95th percentile", n)
	}

	// Kill the servers and reopen what they left on disk.
	var failover *failoverResult
	if b.traced && w.cluster {
		if failover, err = runFailover(wctx, topo, acks, w, b.seed); err != nil {
			return nil, err
		}
	}
	if w.cluster {
		if err := topo.drain(wctx, topo.nodes[0]); err != nil {
			rec.problem("cluster did not converge after the window: %v", err)
		}
	}
	topo.kill()
	if err := setAffinity(b.cpus); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(maxProcs)
	if w.rw {
		lost := 0
		var digests []string
		for _, n := range topo.nodes {
			nl, digest, err := lostWrites(n.dir, acks)
			if err != nil {
				return nil, err
			}
			lost += nl
			digests = append(digests, digest)
		}
		for _, d := range digests[1:] {
			if d != digests[0] {
				rec.problem("cluster nodes disagree after the run")
				break
			}
		}
		if lost > 0 {
			rec.problem("%d of %d acknowledged writes are missing after SIGKILL and reopen", lost, acks.acked())
			rec.Failed += lost
		}
		if failover != nil {
			m.set("replica.failover_s", failover.seconds, 1)
			m.set("replica.lost_acked_writes", float64(lost), failover.sent)
		}
	}

	// The answer check, against an in-process graph on the same data.
	refDir := filepath.Join(b.tmp, w.name+"-ref")
	if err := copyDir(dataDir, refDir); err != nil {
		return nil, err
	}
	openStart := time.Now()
	ref, err := cypher.Open(refDir, cypher.Options{})
	if err != nil {
		return nil, err
	}
	recoverS := time.Since(openStart).Seconds()
	defer ref.Close()
	wrong, err := checkAnswers(ref, w, res.kept)
	if err != nil {
		return nil, err
	}
	for _, msg := range wrong {
		rec.problem("wrong answer: %s", msg)
	}
	rec.Failed += len(wrong)

	if !b.traced {
		endToEndMetrics(m, w, all, res)
		m.set("peak_rss_mb", float64(max(peakRSS, res.peakRSS))/(1<<20), setups)
		return rec, nil
	}

	// Per-layer metrics: the HTTP side from the window, the layers from an
	// in-process replay of the same stream.
	httpLayerMetrics(m, w, all, res, before, after)
	if w.name == "point-read" {
		m.set("storage.recover_s", recoverS, 1)
		n, err := snapshotBytes(refDir)
		if err != nil {
			return nil, err
		}
		m.set("storage.snapshot_bytes", float64(n), 0)
	}
	if w.name == "mixed-rw" {
		start := time.Now()
		if err := ref.Checkpoint(); err != nil {
			return nil, err
		}
		m.set("storage.checkpoint_s", time.Since(start).Seconds(), 1)
	}
	if err := b.inProcessLayers(rec, w, spans); err != nil {
		return nil, err
	}
	outDir := filepath.Join(b.buildDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return rec, spans.write(filepath.Join(outDir, "trace-"+w.name+".json"))
}

func (t *topology) allStats(ctx context.Context) ([]serverStats, error) {
	out := make([]serverStats, len(t.nodes))
	for i, n := range t.nodes {
		s, err := n.stats(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// latencies returns the ascending latencies, in ms, of the successful
// samples pick accepts.
func latencies(samples []sample, pick func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && pick(s) {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func anySample(sample) bool           { return true }
func isWrite(s sample) bool           { return classes[s.class].write }
func isRead(s sample) bool            { return !classes[s.class].write }
func ofClass(c int) func(sample) bool { return func(s sample) bool { return s.class == c } }

func endToEndMetrics(m metrics, w *workload, all []sample, res *loadResult) {
	lat := latencies(all, anySample)
	m.set("qps", float64(len(lat))/res.elapsed.Seconds(), len(lat))
	m.set("p50_ms", percentile(lat, 50), len(lat))
	m.set("p95_ms", percentile(lat, 95), len(lat))
	if w.rw {
		reads, writes := latencies(all, isRead), latencies(all, isWrite)
		m.set("read_p50_ms", percentile(reads, 50), len(reads))
		m.set("write_p50_ms", percentile(writes, 50), len(writes))
	}
	m.set("failed_share", float64(len(all)-len(lat))/float64(max(len(all), 1)), len(all))
	m.set("cpu_ms_per_req", res.cpuSec*1e3/float64(max(len(lat), 1)), len(lat))
}

// httpLayerMetrics derives the per-layer metrics that come from driving the
// server over HTTP: per-class latency and share of busy time, the tail, what
// surrounds QueryContext in the server, and /stats counters over the window.
func httpLayerMetrics(m metrics, w *workload, all []sample, res *loadResult, before, after []serverStats) {
	var busy float64
	for _, s := range all {
		if s.ok {
			busy += s.lat.Seconds()
		}
	}
	var overhead []float64
	for _, c := range w.classesOf() {
		ci := classIndex(c.name)
		lat := latencies(all, ofClass(ci))
		var sum float64
		for _, l := range lat {
			sum += l / 1e3
		}
		m.set("class."+c.name+".p50_ms", percentile(lat, 50), len(lat))
		m.set("class."+c.name+".time_share", sum/busy, len(lat))
	}
	for _, s := range all {
		if s.ok {
			overhead = append(overhead, float64(s.lat.Nanoseconds())/1e3-s.srvMs*1e3)
		}
	}
	lat := latencies(all, anySample)
	// The name says p99; a window with under 1000 samples reports the
	// highest percentile it can support instead.
	m.set("tail.p99_ms."+w.name, percentile(lat, min(99, supportedPercentile(len(lat)))), len(lat))
	if w.rw {
		writes := latencies(all, isWrite)
		m.set("tail.write_p95_ms."+w.name, percentile(writes, 95), len(writes))
	}
	if name := "server.overhead_us." + w.name; units[name] != "" { // the read-only workloads
		m.set(name, median(overhead), len(overhead))
	}
	on := latencies(all, func(s sample) bool { return s.spans })
	off := latencies(all, func(s sample) bool { return !s.spans })
	m.set("trace.overhead_share."+w.name, percentile(on, 50)/percentile(off, 50), len(on))

	b, a := before[0], after[0]
	m.set("server.admission_rejected", float64(a.Governance.Admission.RejectedQueueFull+a.Governance.Admission.RejectedWait-
		b.Governance.Admission.RejectedQueueFull-b.Governance.Admission.RejectedWait), 0)
	if name := "core.plan_cache_hit_ratio." + w.name; units[name] != "" { // point-read and mixed-rw
		hits, misses := a.PlanCache.Hits-b.PlanCache.Hits, a.PlanCache.Misses-b.PlanCache.Misses
		m.set(name, float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))
	}
	writes := len(latencies(all, isWrite))
	if w.name == "mixed-rw" {
		m.set("graph.mvcc_rebuilds", float64(a.MVCC.Rebuilds-b.MVCC.Rebuilds), 0)
		m.set("graph.writer_drain_waits", float64(a.MVCC.WriterDrainWaits-b.MVCC.WriterDrainWaits), 0)
		m.set("storage.wal_bytes_per_write", float64(a.Durability.WALBytes-b.Durability.WALBytes)/float64(max(writes, 1)), writes)
		m.set("storage.fsyncs_per_write", float64(a.Durability.Fsyncs-b.Durability.Fsyncs)/float64(max(writes, 1)), writes)
	}
	if w.cluster {
		// What an acknowledged write waits for after the engine returns: the
		// quorum's journal acknowledgement (plus the reply's trip home). The
		// issue defines this as cluster-rw minus mixed-rw write_p50_ms; a
		// single-workload run has no mixed-rw to subtract, and the server's
		// own timeMs gives the same split inside one run.
		var wait []float64
		for _, s := range all {
			if s.ok && classes[s.class].write {
				wait = append(wait, float64(s.lat.Nanoseconds())/1e6-s.srvMs)
			}
		}
		m.set("replica.commit_wait_ms", median(wait), len(wait))
		lag := sortedCopy(res.lagBytes)
		m.set("replica.lag_bytes_p50", percentile(lag, 50), len(lag))
		m.set("replica.lag_bytes_max", percentile(lag, 100), len(lag))
		m.set("replica.streamed_bytes_per_write", float64(a.Replication.StreamedBytes-b.Replication.StreamedBytes)/float64(max(writes, 1)), writes)
		var elections uint64
		for i := range after {
			elections += after[i].Replication.Elections - before[i].Replication.Elections
		}
		m.set("replica.elections", float64(elections), 0)
	}
}

// inProcessLayers replays the workload's stream against the layers' public
// functions and fills in the per-layer metrics that come from there.
func (b *bench) inProcessLayers(rec *record, w *workload, spans *recorder) error {
	m := rec.Metrics
	store := socialStore(people, b.seed)
	g := cypher.Wrap(socialStore(people, b.seed), cypher.Options{})
	times, bytesOut, err := replay(spans, w, b.seed, store, g, b.window/4)
	if err != nil {
		return err
	}
	reqs := sampleRequests(w, b.seed)
	batch, allocs, err := executeTime(store, reqs, exec.Options{}, 3)
	if err != nil {
		return err
	}
	for _, c := range w.classesOf() {
		v, n := times.median("exec.execute", c.name)
		m.set("exec.execute_us."+c.name, v, n)
		m.set("exec.allocs."+c.name, allocs[c.name], 3)
	}

	switch w.name {
	case "point-read":
		// The front end, over this workload's texts: one cached seek text and
		// the ever-new adhoc ones. adhoc is the only class on which lex,
		// parse, check and plan run per request, so it is their yardstick.
		for _, layer := range []string{"lexer.tokenize", "parser.parse", "semantic.check", "planner.plan"} {
			xs := append(append([]float64(nil), times[layer]["seek"]...), times[layer]["adhoc"]...)
			m.set(layer+"_us", median(xs), len(xs))
		}
		parse := m["parser.parse_us"]
		m.set("parser.parse_us", parse.Value-m["lexer.tokenize_us"].Value, parse.Samples)
		warm, n := times.median("core.query", "seek")
		m.set("core.run_warm_us", warm, n)
		ex, _ := times.median("exec.execute", "seek")
		det, _ := times.median("result.detach", "seek")
		m.set("core.overhead_us", warm-ex-det, n)
		cold, n := times.median("core.query", "adhoc")
		m.set("core.run_cold_us", cold, n)
		m.set("graph.pin_ns", pinCost(store), 200000)
	case "scan-agg":
		v, n := times.median("result.detach", "big-result")
		m.set("result.detach_us.big-result", v, n)
		v, n = times.median("result.rows", "big-result")
		m.set("result.rows_us.big-result", v, n)
		v, n = times.median("server.encode", "big-result")
		m.set("server.encode_us.big-result", v, n)
		m.set("server.response_bytes.big-result", float64(bytesOut["big-result"]), 1)
		row, _, err := executeTime(store, reqs, exec.Options{BatchSize: -1}, 3)
		if err != nil {
			return err
		}
		par, _, err := executeTime(store, reqs, exec.Options{Parallelism: b.nproc}, 3)
		if err != nil {
			return err
		}
		m.set("exec.batch_vs_row.scan-agg", batch.Seconds()/row.Seconds(), 3)
		m.set("exec.parallel_speedup.scan-agg", batch.Seconds()/par.Seconds(), 3)
	case "mixed-rw":
		cycle, appendUs, syncUs, err := writePath(spans, w, b.seed, store, filepath.Join(b.tmp, "wal-direct"), 300)
		if err != nil {
			return err
		}
		m.set("graph.write_cycle_us", cycle, 299)
		m.set("storage.append_us", appendUs, 300)
		m.set("storage.sync_us", syncUs, 300)
	}
	return nil
}
