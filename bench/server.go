package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every child server so that any exit path — return, failed
// check, watchdog, SIGINT — can kill what is still running.
var procs struct {
	mu   sync.Mutex
	live map[*node]struct{}
}

func killAllNodes() {
	procs.mu.Lock()
	nodes := make([]*node, 0, len(procs.live))
	for n := range procs.live {
		nodes = append(nodes, n)
	}
	procs.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// buildServer compiles cmd/cypher-serve from the checkout into the build
// directory. The go build cache makes every build after the first a no-op.
func buildServer(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "cypher-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cypher-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cypher-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// freePorts asks the kernel for n unused loopback ports. A -peers list must
// name every member before any starts, so the ports are released again and
// handed to the servers; nothing else on the machine competes for them in
// the few milliseconds between.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// node is one cypher-serve child process.
type node struct {
	cmd  *exec.Cmd
	url  string
	dir  string
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

func startNode(bin, dir string, port int, args ...string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	full := append([]string{"-addr", addr, "-data", dir, "-sync", "always", "-max-inflight", "64", "-queue-depth", "64"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	n := &node{cmd: cmd, url: "http://" + addr, dir: dir, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child always reports an error
		close(n.done)
	}()
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = map[*node]struct{}{}
	}
	procs.live[n] = struct{}{}
	procs.mu.Unlock()
	return n, nil
}

// kill SIGKILLs the server and waits until it is gone. SIGKILL, not SIGTERM:
// a graceful stop would checkpoint, and the acked-write check wants the
// directory exactly as the last acknowledged request left it.
func (n *node) kill() {
	_ = n.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-n.done
	n.log.Close()
	procs.mu.Lock()
	delete(procs.live, n)
	procs.mu.Unlock()
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// logTail returns the end of the server's log for error messages.
func (n *node) logTail() string {
	b, err := os.ReadFile(n.dir + ".log")
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

var adminClient = &http.Client{Timeout: 30 * time.Second}

func getJSON(ctx context.Context, url string, into any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(body, into)
}

// health is the part of /healthz the harness reads.
type health struct {
	Role     string `json:"role"`
	State    string `json:"state"`
	LagBytes *int64 `json:"lagBytes"`
	Position struct {
		Gen    uint64 `json:"gen"`
		Offset int64  `json:"offset"`
	} `json:"position"`
}

// health reads /healthz; ok is false unless the node answered 200.
func (n *node) health(ctx context.Context) (h health, ok bool) {
	code, err := getJSON(ctx, n.url+"/healthz", &h)
	return h, err == nil && code == http.StatusOK
}

// waitFor polls cond every 20 ms until it holds, the node dies or ctx ends.
func (n *node) waitFor(ctx context.Context, what string, cond func(health) bool) error {
	for {
		if h, ok := n.health(ctx); ok && cond(h) {
			return nil
		}
		select {
		case <-n.done:
			return fmt.Errorf("server %s exited while waiting for %s:\n%s", n.url, what, n.logTail())
		case <-ctx.Done():
			return fmt.Errorf("server %s: waiting for %s: %w\n%s", n.url, what, ctx.Err(), n.logTail())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func leading(h health) bool { return h.Role == "leader" && h.State == "serving" }

func caughtUp(h health) bool {
	return h.Role == "follower" && h.State == "streaming" && h.LagBytes != nil && *h.LagBytes == 0
}

// serverStats is the part of /stats the harness reads.
type serverStats struct {
	Durability struct {
		WALBytes uint64 `json:"walBytes"`
		Fsyncs   uint64 `json:"fsyncs"`
	} `json:"durability"`
	Replication struct {
		LagBytes      int64  `json:"lagBytes"`
		StreamedBytes uint64 `json:"streamedBytes"`
		Elections     uint64 `json:"elections"`
	} `json:"replication"`
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"planCache"`
	MVCC struct {
		WriterDrainWaits uint64 `json:"writerDrainWaits"`
		Rebuilds         uint64 `json:"rebuilds"`
	} `json:"mvcc"`
	Governance struct {
		Admission struct {
			RejectedQueueFull uint64 `json:"rejectedQueueFull"`
			RejectedWait      uint64 `json:"rejectedWait"`
		} `json:"admission"`
	} `json:"governance"`
}

func (n *node) stats(ctx context.Context) (serverStats, error) {
	var s serverStats
	code, err := getJSON(ctx, n.url+"/stats", &s)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /stats: status %d", code)
	}
	return s, err
}

func (n *node) checkpoint(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/admin/checkpoint", bytes.NewReader(nil))
	if err != nil {
		return err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // only used in the error below
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /admin/checkpoint: status %d: %s", resp.StatusCode, body)
	}
	return nil
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSBytes reads the process's resident-set high-water mark (VmHWM) from
// /proc/<pid>/status: the most memory it has held since it started, recovery
// included, as the kernel tracked it. On point-read that mark is set while the
// snapshot loads and is 240 MB or 335 MB depending on where a collection falls,
// one start in four the lower; peak_rss_mb is the highest of a run's three
// set-ups, which is the higher mode in all but one run in sixty.
func peakRSSBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM in /proc/%d/status: %q", pid, line)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// copyDir copies the regular files of a flat data directory, leaving out the
// inter-process LOCK file.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
