// Command bench is the repository's one benchmark: it builds cmd/cypher-serve,
// runs it as child processes (one node, or a three-node -peers cluster),
// drives it over HTTP with one seeded closed-loop client, checks the answers
// and prints every metric by name. See README.md in this directory.
//
//	go -C bench run . -seed 1              all five workloads, end-to-end metrics
//	go -C bench run . -seed 1 -trace 1     all five, per-layer metrics + trace files
//	go -C bench run . compare A.jsonl B.jsonl
//
// The driver's form, one workload per invocation, ends with one JSON line:
//
//	go -C bench run . --workload point-read --seed 7 --seconds 8 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(b)
		return
	}
	os.Exit(benchMain())
}

// findRoot walks up from the working directory to the checkout: the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in any parent directory: run from the repository")
		}
		dir = parent
	}
}

func benchMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all five)")
		seed         = flag.Int64("seed", 1, "seeds the dataset and every client's request stream")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
		out          = flag.String("out", "", "append one JSON line per workload result to this file (the input of compare)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file] | bench compare A B")
		return 2
	}
	run := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		run = []*workload{w}
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cpus, err := getAffinity()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b := &bench{
		cpus:     cpus,
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		nproc:    runtime.NumCPU(),
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
	}
	if err := os.MkdirAll(b.buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if b.tmp, err = os.MkdirTemp(b.buildDir, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Every way out of runAll — return, panic, or SIGINT/SIGTERM cancelling
	// the context and failing whatever phase is running — passes through
	// these: children killed and waited for, then scratch data removed.
	defer os.RemoveAll(b.tmp)
	defer killAllNodes()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return b.runAll(ctx, run, *workloadName != "", *out)
}

func (b *bench) env() map[string]string {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", b.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	kernel := "unknown"
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(k))
	}
	return map[string]string{
		"commit":     commit,
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(b.nproc),
		"timed_on":   "1 processor, 1 client",
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"kernel":     kernel,
		"seed":       fmt.Sprint(b.seed),
		"window_s":   fmt.Sprint(b.window.Seconds()),
		"warmup_s":   fmt.Sprint(b.warmup().Seconds()),
		"setups":     fmt.Sprint(setups),
	}
}

func (b *bench) runAll(ctx context.Context, run []*workload, single bool, outFile string) int {
	env := b.env()
	fmt.Printf("# bench: commit %s, %s, nproc %s, GOMAXPROCS %s, kernel %s\n", env["commit"], env["go"], env["nproc"], env["gomaxprocs"], env["kernel"])
	fmt.Printf("# seed %s, closed loop, timed on %s, window %s s, warm-up %s s, %s set-ups per workload\n", env["seed"], env["timed_on"], env["window_s"], env["warmup_s"], env["setups"])

	var err error
	if b.bin, err = buildServer(b.root, b.buildDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dataDir, err := b.prepareData()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	gateBad, err := gate(b.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	code := 0
	for _, w := range run {
		rec, err := b.runWorkload(ctx, w, dataDir, gateBad)
		if err != nil {
			// No result line: the run did not measure anything it can vouch for.
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		rec.Env = env
		printRecord(rec)
		if outFile != "" {
			if err := appendRecord(outFile, rec); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if !rec.Correct || rec.Failed > 0 {
			code = 1
		}
		if single {
			line, err := json.Marshal(contractResult(rec))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println(string(line))
		}
	}
	return code
}

func printRecord(rec *record) {
	fmt.Printf("\n## %s  (%d attempted, %d failed)\n", rec.Workload, rec.Attempted, rec.Failed)
	for _, name := range sortedNames(rec.Metrics) {
		m := rec.Metrics[name]
		fmt.Printf("%-44s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, p := range rec.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractResult shapes a record into the driver's result object: exactly
// correct, attempted, failed and metrics, the metrics being every end-to-end
// metric with tracing off and every per-layer metric with it on.
func contractResult(rec *record) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	specs := endToEnd
	if rec.Trace {
		specs = perLayer()
	}
	for _, s := range specs {
		m, ok := rec.Metrics[s.Name]
		if !ok && !rec.Trace {
			// A workload without writes has one request population; the
			// read/write percentiles repeat the all-request ones there.
			m = rec.Metrics[readWriteOnly[s.Name]]
		}
		// A per-layer metric this workload does not exercise reads 0.
		out[s.Name] = value{m.Value, s.Unit}
	}
	return map[string]any{"correct": rec.Correct && rec.Failed == 0, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": out}
}
