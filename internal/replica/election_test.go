package replica

// In-process election harness: three cluster nodes on real HTTP listeners,
// optionally fronted by lossy/delaying TCP proxies (fault injection), driving
// the failover scenarios the chaos e2e test repeats at process level —
// single-leader convergence, committed-prefix preservation across leader
// death, zombie fencing through a healed partition, and election stability
// under network jitter.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/value"
)

// flakyProxy is a TCP forwarder with fault injection: per-chunk delay
// (jitter), connection drops, and full partition (sever everything, refuse
// new connections).
type flakyProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	sever  bool
	delay  time.Duration
	dropN  int // close every Nth accepted connection immediately (0 = off)
	accept int
	conns  map[net.Conn]struct{}
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close(); p.Partition(true) })
	return p
}

func (p *flakyProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *flakyProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.accept++
		kill := p.sever || (p.dropN > 0 && p.accept%p.dropN == 0)
		if !kill {
			p.conns[c] = struct{}{}
		}
		p.mu.Unlock()
		if kill {
			c.Close()
			continue
		}
		go p.pipe(c)
	}
}

func (p *flakyProxy) pipe(down net.Conn) {
	defer p.drop(down)
	up, err := net.DialTimeout("tcp", p.target, time.Second)
	if err != nil {
		return
	}
	defer p.drop(up)
	p.mu.Lock()
	if p.sever {
		p.mu.Unlock()
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()

	done := make(chan struct{}, 2)
	copyHalf := func(dst, src net.Conn) {
		buf := make([]byte, 32<<10)
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				p.mu.Lock()
				d := p.delay
				p.mu.Unlock()
				if d > 0 {
					time.Sleep(d)
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if rerr != nil {
				break
			}
		}
		done <- struct{}{}
	}
	go copyHalf(up, down)
	go copyHalf(down, up)
	<-done
}

func (p *flakyProxy) drop(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

// Partition severs every live connection and refuses new ones until healed.
func (p *flakyProxy) Partition(on bool) {
	p.mu.Lock()
	p.sever = on
	if on {
		for c := range p.conns {
			c.Close()
		}
		p.conns = map[net.Conn]struct{}{}
	}
	p.mu.Unlock()
}

// SetDelay injects per-chunk forwarding latency in both directions.
func (p *flakyProxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// clusterNode is one in-process cluster member.
type clusterNode struct {
	t       *testing.T
	dir     string
	g       *graph.Graph
	engine  *core.Engine
	cluster *Cluster
	srv     *httptest.Server
	proxy   *flakyProxy // nil unless the harness fronts the node
	url     string      // the node's advertised URL (proxy when fronted)
}

// startCluster boots n nodes over fresh directories; with proxied, every
// node's advertised identity is its proxy, so faults can be injected on any
// member's inbound path.
func startCluster(t *testing.T, n int, electionTimeout time.Duration, proxied bool) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	muxes := make([]*http.ServeMux, n)
	for i := range nodes {
		mux := http.NewServeMux()
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		node := &clusterNode{t: t, dir: t.TempDir(), srv: srv, url: srv.URL}
		if proxied {
			node.proxy = newFlakyProxy(t, srv.Listener.Addr().String())
			node.url = node.proxy.URL()
		}
		muxes[i], nodes[i], urls[i] = mux, node, node.url
	}
	for i, node := range nodes {
		node.g = graph.New()
		fs, err := storage.OpenFollower(node.dir, node.g, storage.Options{})
		if err != nil {
			t.Fatalf("open follower store: %v", err)
		}
		node.engine = core.NewEngine(node.g, core.Options{})
		cl, err := NewCluster(ClusterConfig{
			Dir:             node.dir,
			Advertise:       node.url,
			Peers:           urls,
			Engine:          node.engine,
			Store:           fs,
			ElectionTimeout: electionTimeout,
			Logf:            t.Logf,
		})
		if err != nil {
			t.Fatalf("new cluster: %v", err)
		}
		node.cluster = cl
		muxes[i].Handle("/repl/", http.StripPrefix("/repl", cl.Handler()))
		cl.Start()
		t.Cleanup(func() { cl.Stop() })
	}
	return nodes
}

// kill tears the node down abruptly: connections die and the process state
// vanishes, with no step-down courtesy to peers — what a crash looks like.
func (n *clusterNode) kill() {
	n.srv.CloseClientConnections()
	n.cluster.Stop()
	n.srv.Close()
}

// waitOneLeader polls until exactly one of nodes leads, every other node
// recognizes it, and its engine accepts writes.
func waitOneLeader(t *testing.T, nodes []*clusterNode, timeout time.Duration) *clusterNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var leaders []*clusterNode
		for _, n := range nodes {
			if n.cluster.Role() == RoleLeader {
				leaders = append(leaders, n)
			}
		}
		if len(leaders) == 1 && leaders[0].engine.IsWriter() {
			lead := leaders[0]
			agreed := true
			for _, n := range nodes {
				if n != lead && n.cluster.LeaderURL() != lead.url {
					agreed = false
				}
			}
			if agreed {
				return lead
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, n := range nodes {
		st := n.cluster.Stats()
		t.Logf("node %s: role=%s term=%d leader=%q state=%s lastErr=%q",
			n.url, st.Role, st.Term, st.ClusterLeader, st.State, st.LastError)
	}
	t.Fatalf("no single agreed leader within %v", timeout)
	return nil
}

// waitClusterConverged polls until every node's graph dump is identical to
// the leader's.
func waitClusterConverged(t *testing.T, lead *clusterNode, nodes []*clusterNode) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		want := lead.g.DebugDump()
		same := true
		for _, n := range nodes {
			if n.g.DebugDump() != want {
				same = false
				break
			}
		}
		if same {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, n := range nodes {
		st := n.cluster.Stats()
		t.Logf("node %s: role=%s term=%d state=%s pos=%v lastErr=%q",
			n.url, st.Role, st.Term, st.State, st.Local, st.LastError)
	}
	t.Fatal("cluster never converged on the leader's state")
}

// mustCommit writes one document through the leader and waits for a quorum
// acknowledgement, the same bar the serving layer sets for a 200.
func mustCommit(t *testing.T, lead *clusterNode, rev int) {
	t.Helper()
	if _, err := lead.engine.Run(fmt.Sprintf(`CREATE (:Doc {rev: %d})`, rev), nil); err != nil {
		t.Fatalf("write rev %d: %v", rev, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lead.cluster.WaitCommitted(ctx, lead.cluster.Position()); err != nil {
		t.Fatalf("rev %d never reached a quorum: %v", rev, err)
	}
}

func countDocs(t *testing.T, n *clusterNode) int {
	t.Helper()
	res, err := n.engine.Run(`MATCH (d:Doc) RETURN count(d)`, nil)
	if err != nil {
		t.Fatalf("count on %s: %v", n.url, err)
	}
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("count rows = %d", len(rows))
	}
	cnt, ok := value.AsInt(rows[0][0])
	if !ok {
		t.Fatalf("count(d) = %v, want an integer", rows[0][0])
	}
	return int(cnt)
}

func TestClusterElectsSingleLeaderAndReplicates(t *testing.T) {
	nodes := startCluster(t, 3, 400*time.Millisecond, false)
	lead := waitOneLeader(t, nodes, 10*time.Second)

	for i := 1; i <= 10; i++ {
		mustCommit(t, lead, i)
	}
	waitClusterConverged(t, lead, nodes)

	// All nodes agree on the term and writes on followers are rejected with
	// the leader's address attached.
	term := lead.cluster.Term()
	if term == 0 {
		t.Fatal("leader at term 0; elections must bump the term")
	}
	for _, n := range nodes {
		if n == lead {
			continue
		}
		if got := n.cluster.Term(); got != term {
			t.Fatalf("node %s at term %d, leader at %d", n.url, got, term)
		}
		_, err := n.engine.Run(`CREATE (:Doc {rev: 999})`, nil)
		var ro *core.ReadOnlyReplicaError
		if !errors.As(err, &ro) {
			t.Fatalf("follower write error = %v, want ReadOnlyReplicaError", err)
		}
		if ro.Leader != lead.url {
			t.Fatalf("follower redirects to %q, want %q", ro.Leader, lead.url)
		}
	}
}

func TestFailoverPreservesCommittedWrites(t *testing.T) {
	nodes := startCluster(t, 3, 400*time.Millisecond, false)
	lead := waitOneLeader(t, nodes, 10*time.Second)
	termBefore := lead.cluster.Term()

	for i := 1; i <= 5; i++ {
		mustCommit(t, lead, i)
	}

	// Crash the leader. The two survivors must elect a replacement — and
	// because votes are refused to candidates behind the voter's log, the
	// winner is guaranteed to hold every quorum-committed write.
	var survivors []*clusterNode
	for _, n := range nodes {
		if n != lead {
			survivors = append(survivors, n)
		}
	}
	lead.kill()
	lead2 := waitOneLeader(t, survivors, 10*time.Second)

	if got := lead2.cluster.Term(); got <= termBefore {
		t.Fatalf("new leader term %d, want > %d", got, termBefore)
	}
	if got := countDocs(t, lead2); got != 5 {
		t.Fatalf("new leader holds %d committed docs, want 5", got)
	}

	// The new leader accepts and commits writes with the remaining quorum.
	for i := 6; i <= 10; i++ {
		mustCommit(t, lead2, i)
	}
	waitClusterConverged(t, lead2, survivors)
	for _, n := range survivors {
		if got := countDocs(t, n); got != 10 {
			t.Fatalf("node %s holds %d docs, want 10", n.url, got)
		}
	}
}

func TestPartitionHealsWithoutSplitBrain(t *testing.T) {
	nodes := startCluster(t, 3, 400*time.Millisecond, true)
	lead := waitOneLeader(t, nodes, 10*time.Second)
	for i := 1; i <= 3; i++ {
		mustCommit(t, lead, i)
	}
	waitClusterConverged(t, lead, nodes)

	// Partition the leader's inbound path: followers lose the stream and
	// their acks stop reaching it.
	lead.proxy.Partition(true)

	// A write slipped in during the partition applies locally but can never
	// reach a quorum — the commit bar, not local apply, is what a client's
	// 200 certifies.
	if _, err := lead.engine.Run(`CREATE (:Doc {rev: 666})`, nil); err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := lead.cluster.WaitCommitted(ctx, lead.cluster.Position()); err == nil {
			cancel()
			t.Fatal("partitioned leader quorum-committed a write")
		}
		cancel()
	}

	// The majority side elects a replacement; the old leader — lease lost —
	// must stop accepting writes even before it learns who won.
	var majority []*clusterNode
	for _, n := range nodes {
		if n != lead {
			majority = append(majority, n)
		}
	}
	lead2 := waitOneLeader(t, majority, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for lead.engine.IsWriter() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if lead.engine.IsWriter() {
		t.Fatal("partitioned ex-leader still accepts writes: split brain")
	}

	// Heal. The deposed leader must rejoin as a follower of the winner, its
	// unreplicated zombie write discarded by the resync onto the new
	// leader's history.
	lead.proxy.Partition(false)
	all := nodes
	lead3 := waitOneLeader(t, all, 15*time.Second)
	if lead3 != lead2 {
		t.Fatalf("healed cluster led by %s, want the majority's winner %s", lead3.url, lead2.url)
	}
	mustCommit(t, lead2, 4)
	waitClusterConverged(t, lead2, all)
	for _, n := range all {
		if got := countDocs(t, n); got != 4 {
			t.Fatalf("node %s holds %d docs, want 4 (zombie write must be gone)", n.url, got)
		}
	}
}

func TestHeartbeatJitterNoSpuriousElections(t *testing.T) {
	nodes := startCluster(t, 3, 600*time.Millisecond, true)
	lead := waitOneLeader(t, nodes, 10*time.Second)
	mustCommit(t, lead, 1)

	// Inject per-chunk latency well under the heartbeat timeout on every
	// link; frames arrive late but steadily, so the watchdog must not fire.
	for _, n := range nodes {
		n.proxy.SetDelay(40 * time.Millisecond)
	}
	before := make(map[*clusterNode]uint64, len(nodes))
	termBefore := lead.cluster.Term()
	for _, n := range nodes {
		before[n] = n.cluster.Stats().Elections
	}
	time.Sleep(2 * time.Second)

	if lead.cluster.Role() != RoleLeader {
		t.Fatalf("leader lost its role under jitter (now %s)", lead.cluster.Role())
	}
	if got := lead.cluster.Term(); got != termBefore {
		t.Fatalf("term moved %d -> %d under jitter", termBefore, got)
	}
	for _, n := range nodes {
		if got := n.cluster.Stats().Elections; got != before[n] {
			t.Fatalf("node %s campaigned under jitter (%d -> %d elections)", n.url, before[n], got)
		}
	}
	// Still live: a write commits through the delayed links.
	mustCommit(t, lead, 2)
}

// TestWriteBeforeCheckpointCommitsFromLaterGeneration covers a write that
// lands in one generation while the followers next acknowledge a later one:
// the leader checkpoints before they see the write (as it does right after
// promotion), so they catch up from the new snapshot. Their acks hold the
// write and must count for it.
func TestWriteBeforeCheckpointCommitsFromLaterGeneration(t *testing.T) {
	nodes := startCluster(t, 3, 2*time.Second, true)
	lead := waitOneLeader(t, nodes, 10*time.Second)
	mustCommit(t, lead, 1)

	lead.proxy.Partition(true)
	if _, err := lead.engine.Run(`CREATE (:Doc {rev: 2})`, nil); err != nil {
		t.Fatal(err)
	}
	pos := lead.cluster.Position()
	if err := lead.engine.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if now := lead.cluster.Position(); now.Gen == pos.Gen {
		t.Fatalf("checkpoint kept generation %d", now.Gen)
	}
	lead.proxy.Partition(false)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lead.cluster.WaitCommitted(ctx, pos); err != nil {
		t.Fatalf("write at %v never counted as committed: %v", pos, err)
	}
	waitClusterConverged(t, lead, nodes)
}

// TestWaitCommittedEndsWhenLeadershipDoes checks that a write waiting for its
// quorum hears of a newer term at once instead of waiting out its context.
func TestWaitCommittedEndsWhenLeadershipDoes(t *testing.T) {
	nodes := startCluster(t, 3, 2*time.Second, true)
	lead := waitOneLeader(t, nodes, 10*time.Second)
	mustCommit(t, lead, 1)

	// Cut the followers off so the next write cannot reach a quorum.
	lead.proxy.Partition(true)
	if _, err := lead.engine.Run(`CREATE (:Doc {rev: 2})`, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- lead.cluster.WaitCommitted(ctx, lead.cluster.Position()) }()
	time.Sleep(50 * time.Millisecond)
	lead.cluster.observeTerm(lead.cluster.Term() + 1)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a deposed leader quorum-committed a write no follower saw")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitCommitted kept waiting after the leader was deposed")
	}
}
