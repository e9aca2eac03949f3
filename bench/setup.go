package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	cypher "repro"
	"repro/internal/datasets"
	"repro/internal/graph"
)

// bench is the state shared by every phase of one invocation.
type bench struct {
	root     string // the checkout: the directory holding BENCHMARK.json
	buildDir string // root/.bench_build: server binary, prepared data, scratch
	tmp      string // this invocation's scratch directory, removed at exit
	bin      string // the built cypher-serve
	nproc    int
	cpus     cpuMask // the processors the harness was started on
	seed     int64
	window   time.Duration
	traced   bool
}

// warmup is the share of the window spent warming a fresh server before the
// clock starts (the issue's 3 s against 20 s).
func (b *bench) warmup() time.Duration { return b.window * 3 / 20 }

func social(n int, seed int64) *graph.Graph {
	return datasets.SocialNetwork(datasets.SocialConfig{People: n, FriendsEach: friendsEach, Seed: seed})
}

// socialStore is the seed's graph as an in-process store, indexed like the
// prepared data directory.
func socialStore(n int, seed int64) *graph.Graph {
	g := social(n, seed)
	g.CreateIndex("Person", "name")
	return g
}

// prepareData builds the seed's data directory through the public API —
// Open, ImportFrom, CreateIndex, Checkpoint, Close — because Cypher has no
// CREATE INDEX statement a server could be sent. The directory is kept under
// the build directory and reused by later runs at the same seed; it is a pure
// function of the seed and the checkout's code.
func (b *bench) prepareData() (string, error) {
	dir := filepath.Join(b.buildDir, "data", fmt.Sprintf("social-%d-seed-%d", people, b.seed))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	work, err := os.MkdirTemp(b.tmp, "prepare-")
	if err != nil {
		return "", err
	}
	g, err := cypher.Open(work, cypher.Options{})
	if err != nil {
		return "", err
	}
	err = g.ImportFrom(social(people, b.seed))
	if err == nil {
		err = g.CreateIndex("Person", "name")
	}
	if err == nil {
		err = g.Checkpoint()
	}
	if cerr := g.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("prepare data directory: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", err
	}
	// Rename publishes the finished directory in one step, so a run killed
	// mid-preparation never leaves a half-written cache entry behind.
	if err := os.Rename(work, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// topology is the running server or cluster a workload drives. nodes[0] is
// the single node or the cluster leader, nodes[1:] the followers.
type topology struct {
	nodes   []*node
	cluster bool
}

// target is the node a request goes to: the single node, or on a cluster the
// leader for a write and the first follower for a read.
func (t *topology) target(write bool) *node {
	if t.cluster && !write {
		return t.nodes[1]
	}
	return t.nodes[0]
}

func (t *topology) kill() {
	for _, n := range t.nodes {
		n.kill()
	}
}

func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, n := range t.nodes {
		c, err := cpuSeconds(n.pid())
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (t *topology) peakRSSBytes() (int64, error) {
	var sum int64
	for _, n := range t.nodes {
		r, err := peakRSSBytes(n.pid())
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// start copies the prepared data and brings the workload's servers up until
// they answer /healthz — on a cluster until the leader leads and both
// followers stream with no lag.
//
// A cluster is started in a fixed order: the one node holding the data
// together with one empty node, then the third. Only the seeded node can win
// that first election (its log is ahead), and the empty followers install its
// snapshot into an empty graph in about a second. Starting three nodes on
// three copies of the data does not converge at -election-timeout 1s: every
// election ends in a checkpoint, a follower replacing a loaded graph by the
// new snapshot takes longer than the timeout, campaigns, and the cluster
// trades leaders for as long as it runs (README, findings).
func (b *bench) start(ctx context.Context, w *workload, dataDir, runDir string) (*topology, error) {
	args := append([]string{"-parallelism", "1"}, w.args...)
	if !w.cluster {
		dir := filepath.Join(runDir, "n0")
		if err := copyDir(dataDir, dir); err != nil {
			return nil, err
		}
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		n, err := startNode(b.bin, dir, ports[0], args...)
		if err != nil {
			return nil, err
		}
		t := &topology{nodes: []*node{n}}
		if err := n.waitFor(ctx, "healthz", func(health) bool { return true }); err != nil {
			t.kill()
			return nil, err
		}
		return t, nil
	}

	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	peers := make([]string, len(ports))
	for i, p := range ports {
		peers[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	args = append(args, "-peers", strings.Join(peers, ","))
	t := &topology{cluster: true}
	launch := func(i int) error {
		n, err := startNode(b.bin, filepath.Join(runDir, fmt.Sprintf("n%d", i)), ports[i], args...)
		if err == nil {
			t.nodes = append(t.nodes, n)
		}
		return err
	}
	if err := copyDir(dataDir, filepath.Join(runDir, "n0")); err != nil {
		return nil, err
	}
	err = launch(0)
	if err == nil {
		err = launch(1)
	}
	if err == nil {
		err = t.nodes[0].waitFor(ctx, "leadership", leading)
	}
	if err == nil {
		err = t.nodes[1].waitFor(ctx, "catch-up", caughtUp)
	}
	if err == nil {
		err = launch(2)
	}
	if err == nil {
		err = t.nodes[2].waitFor(ctx, "catch-up", caughtUp)
	}
	if err == nil {
		err = t.settle(ctx, time.Second)
	}
	if err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

// settle waits until the cluster has looked healthy — the leader serving
// with its quorum lease, both followers streaming with no lag — at every poll
// for a whole quiet period, so that a lease lost while the third node joined
// is back before the first write is sent.
func (t *topology) settle(ctx context.Context, quiet time.Duration) error {
	healthy := func() bool {
		for i, n := range t.nodes {
			h, ok := n.health(ctx)
			if !ok || i == 0 && !leading(h) || i > 0 && !caughtUp(h) {
				return false
			}
		}
		return true
	}
	since := time.Now()
	for time.Since(since) < quiet {
		if !healthy() {
			since = time.Now()
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster did not settle: %w\n%s", ctx.Err(), t.nodes[0].logTail())
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil
}

// drain waits, once the client has stopped, until every other live node
// has journaled up to the leader's position, so that the nodes can be
// compared after they are killed.
func (t *topology) drain(ctx context.Context, leader *node) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var want health
	if err := leader.waitFor(ctx, "position", func(h health) bool { want = h; return true }); err != nil {
		return err
	}
	for _, n := range t.nodes {
		if n == leader {
			continue
		}
		if err := n.waitFor(ctx, "drain", func(h health) bool { return h.Position == want.Position }); err != nil {
			return err
		}
	}
	return nil
}
