package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {95, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of unsorted input = %v, want 2", got)
	}
}

// The tail a sample can support is the highest percentile with at least ten
// samples beyond it: p95 needs 200 samples, p99 needs 1000.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which is
// what the driver's spread check computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7, 1, 4}) // python: [1.0, 4.0, 7.0]
	if q1 != 1 || q2 != 4 || q3 != 7 {
		t.Errorf("quartiles(7,1,4) = %v %v %v, want 1 4 7", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 8}) // python: [0.5, 5.0, 9.5]
	if q1 != 0.5 || q2 != 5 || q3 != 9.5 {
		t.Errorf("quartiles(2,8) = %v %v %v, want 0.5 5 9.5", q1, q2, q3)
	}
}

func streamBytes(w *workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	s := newStream(w, w.mix, seed, 0, people)
	for j := 0; j < n; j++ {
		buf.Write(s.next().body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamBytes(w, 7, 400), streamBytes(w, 7, 400), streamBytes(w, 8, 400)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
	}
}

// Smooth weighted round-robin: every whole cycle holds each class exactly
// weight times, so a window's mix does not depend on where it ends.
func TestStreamHoldsTheConfiguredMix(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, w.mix, 1, 0, people)
		for cycle := 0; cycle < 3; cycle++ {
			seen := map[string]int{}
			for j := 0; j < s.sum; j++ {
				seen[classes[s.next().class].name]++
			}
			for _, m := range w.mix {
				if seen[m.class] != m.weight {
					t.Errorf("%s cycle %d: %s sent %d times, weight %d", w.name, cycle, m.class, seen[m.class], m.weight)
				}
			}
		}
	}
}

// On the read/write workloads each writer (the client, and the failover
// phase's sender) owns its people and readers anchor where no write-create
// starts, or the answer and acked-write checks would have nothing fixed to
// compare against.
func TestKeySpacePartition(t *testing.T) {
	for _, w := range workloads {
		if !w.rw {
			continue
		}
		for _, i := range []int{0, 3} {
			s := newStream(w, w.mix, 3, i, people)
			for j := 0; j < 2000; j++ {
				r := s.next()
				switch classes[r.class].name {
				case "seek":
					if writable(r.params["name"].(string)) {
						t.Fatalf("%s: seek anchors on %v, which a writer owns", w.name, r.params["name"])
					}
				case "write-set":
					var n int
					if _, err := fmt.Sscanf(r.params["name"].(string), "person-%d", &n); err != nil || n%8 != i {
						t.Fatalf("%s client %d: write-set on %v, not its own", w.name, i, r.params["name"])
					}
				case "write-create":
					if y := r.params["y"].(int64); y < createdSince {
						t.Fatalf("%s: write-create since %d is below the floor", w.name, y)
					}
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},  // root: two children cover 70
		{ID: 2, Parent: 1, Start: 10, End: 50},  // child with its own child
		{ID: 3, Parent: 2, Start: 20, End: 30},  // grandchild
		{ID: 4, Parent: 1, Start: 60, End: 90},  // second child
		{ID: 5, Parent: 1, Start: 95, End: 120}, // overruns its parent: only 5 counts
		{ID: 6, Parent: 99, Start: 0, End: 7},   // orphan: all self
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 30 - 5, 2: 30, 3: 10, 4: 30, 5: 25, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderNestsHTTPSpans(t *testing.T) {
	r := newRecorder()
	start := r.t0.Add(1000)
	r.httpSpan("seek", start, start.Add(1000), 400)
	if len(r.spans) != 2 || r.spans[1].Parent != r.spans[0].ID || r.spans[0].Req != r.spans[1].Req {
		t.Fatalf("spans = %+v", r.spans)
	}
	if self := selfTimes(r.spans)[r.spans[0].ID]; self != 600 {
		t.Errorf("client self time = %d, want 600", self)
	}
}

// BENCHMARK.json is rendered from the harness's own tables.
func TestManifestIsBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go -C bench run . manifest`; regenerate it")
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", n)
	}
	// The contract's limits on names, units and reasons.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("metric %q (unit %q) breaks the contract's naming rules or repeats", s.Name, s.Unit)
		}
		seen[s.Name] = true
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 || s.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v is outside (0, 0.25] or above setup_s's", s.Name, s.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or reason breaks the contract's limits", w.name)
		}
	}
}

// Every metric and workload BENCHMARK.json names is emitted by the harness —
// shown by the committed baseline, which the harness wrote — and the harness
// emits nothing the file does not name (metrics.set panics on such a name).
func TestBaselineCoversBenchmarkJSON(t *testing.T) {
	f, err := os.Open("baseline.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	emitted := map[bool]map[string]bool{false: {}, true: {}} // by traced
	ran := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		ran[rec.Workload] = true
		for name, m := range rec.Metrics {
			emitted[rec.Trace][name] = true
			if m.Unit != unitOf(name) {
				t.Errorf("%s: baseline unit %q, declared %q", name, m.Unit, unitOf(name))
			}
		}
		// The driver's line must carry every metric of its kind, no other.
		line := contractResult(&rec)["metrics"]
		b, _ := json.Marshal(line)
		var names map[string]any
		if err := json.Unmarshal(b, &names); err != nil {
			t.Fatal(err)
		}
		specs := endToEnd
		if rec.Trace {
			specs = perLayer()
		}
		if len(names) != len(specs) {
			t.Errorf("%s trace=%v: result line has %d metrics, BENCHMARK.json %d", rec.Workload, rec.Trace, len(names), len(specs))
		}
		for _, s := range specs {
			if _, ok := names[s.Name]; !ok {
				t.Errorf("%s trace=%v: result line lacks %s", rec.Workload, rec.Trace, s.Name)
			}
		}
	}
	for _, w := range workloads {
		if !ran[w.name] {
			t.Errorf("baseline has no run of workload %s", w.name)
		}
	}
	for _, s := range endToEnd {
		if !emitted[false][s.Name] {
			t.Errorf("no untraced baseline run emits %s", s.Name)
		}
	}
	for _, s := range perLayer() {
		if !emitted[true][s.Name] {
			t.Errorf("no traced baseline run emits %s", s.Name)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, base, "lower", "unchanged"},
		{"3% worse inside a 5% bound", base, scale(1.03), "lower", "unchanged"},
		{"8% worse", base, scale(1.08), "lower", "regressed"},
		{"8% lower throughput", base, scale(0.92), "higher", "regressed"},
		{"10% better", base, scale(0.90), "lower", "improved"},
		{"10% more throughput", base, scale(1.10), "higher", "improved"},
		{"spread wider than the bound", noisy, noisy, "lower", "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, 0.05); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestAnswerCanonicalisation(t *testing.T) {
	a, err := canonRows([][]any{{"x", int64(2)}, {"a", 1.5}}, false)
	if err != nil {
		t.Fatal(err)
	}
	// The same rows as an HTTP client decodes them: floats, other order.
	b, _ := canonRows([][]any{{"a", 1.5}, {"x", float64(2)}}, false)
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("bags differ: %v vs %v", a, b)
	}
	c, _ := canonRows([][]any{{"a", 1.5}, {"x", float64(2)}}, true)
	d, _ := canonRows([][]any{{"x", int64(2)}, {"a", 1.5}}, true)
	if strings.Join(c, "|") == strings.Join(d, "|") {
		t.Error("ordered answers in different orders compared equal")
	}
	rows := [][]any{{person(0), 30.0}, {person(5), 31.0}}
	maskAges(rows)
	if rows[0][1] != nil || rows[1][1] != 31.0 {
		t.Errorf("maskAges = %v: person-0 is writable, person-5 is not", rows)
	}
}

func TestAckLogSkipsUnknownOutcomes(t *testing.T) {
	l := newAckLog()
	set := func(name string, age int64) request {
		return request{class: classIndex("write-set"), params: map[string]any{"name": name, "age": age}}
	}
	l.record(set("person-0", 30), true)
	l.record(set("person-0", 31), false) // outcome unknown: either value may be on disk
	l.record(set("person-8", 40), false)
	l.record(set("person-8", 41), true) // a later acknowledgement settles it
	if !l.unknown["person-0"] || l.unknown["person-8"] || l.ages["person-8"] != 41 {
		t.Errorf("ackLog = %+v", l)
	}
}

func TestContractLineFillsWhatAWorkloadLacks(t *testing.T) {
	rec := &record{Correct: true, Attempted: 10, Metrics: metrics{}}
	for _, s := range endToEnd {
		if _, rw := readWriteOnly[s.Name]; !rw {
			rec.Metrics.set(s.Name, 1.5, 1)
		}
	}
	rec.Metrics.set("p50_ms", 7, 1)
	b, err := json.Marshal(contractResult(rec))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 10 || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("line = %s", b)
	}
	if line.Metrics["write_p50_ms"].Value != 7 || line.Metrics["read_p50_ms"].Value != 7 || line.Metrics["qps"].Unit != "1/s" {
		t.Errorf("line = %s", b)
	}
}
