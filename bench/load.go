package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sampleEvery is the stride of the answer check: every 50th response is kept
// whole and compared with the in-process reference after the
// window, so checking costs the measured loop nothing but a pointer.
const sampleEvery = 50

// sample is one completed request.
type sample struct {
	class int
	lat   time.Duration // client-observed: send to last body byte
	srvMs float64       // the response's timeMs: time inside Graph.QueryContext
	ok    bool
	spans bool // spans were recorded around this request
}

// kept is a response held back for the answer check.
type kept struct {
	req  request
	body []byte
}

// ackLog records what the servers acknowledged, for the acked-write check.
// A write whose outcome is unknown (error, timeout) makes its person's age
// unknowable, so the check skips that name rather than guess.
type ackLog struct {
	mu      sync.Mutex
	ages    map[string]int64 // last acknowledged SET per name
	unknown map[string]bool  // names with a write of unknown outcome
	created map[createKey]bool
}

type createKey struct {
	a, b  string
	since int64
}

func newAckLog() *ackLog {
	return &ackLog{ages: map[string]int64{}, unknown: map[string]bool{}, created: map[createKey]bool{}}
}

func (l *ackLog) record(req request, acked bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch classes[req.class].name {
	case "write-set":
		name := req.params["name"].(string)
		if acked {
			l.ages[name] = req.params["age"].(int64)
			delete(l.unknown, name)
		} else {
			l.unknown[name] = true
		}
	case "write-create":
		if acked {
			l.created[createKey{req.params["a"].(string), req.params["b"].(string), req.params["y"].(int64)}] = true
		}
	}
}

func (l *ackLog) acked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ages) + len(l.created)
}

// load is one closed-loop phase against a running topology: one client on one
// keep-alive connection per node, as a session-holding Cypher driver would.
type load struct {
	topo   *topology
	stream *stream
	client *http.Client
	acks   *ackLog // nil on read-only workloads
	// rec, when set, records spans around the requests of every other cycle
	// of the stream. Traced and untraced requests then share the window and
	// the class mix, and the ratio of their median latencies is what span
	// recording costs, free of drift between two windows.
	rec  *recorder
	keep bool // hold back every sampleEvery-th response

	// checkpointAt, when positive, forces one checkpoint on node 0 that long
	// into the phase. The server's own -checkpoint-every timer starts at
	// process start, so its phase against the window would vary from run to
	// run; a fixed offset puts the same stall in every window.
	checkpointAt time.Duration
}

// loadResult is what one phase measured.
type loadResult struct {
	samples  []sample
	kept     []kept
	errors   []string // first few failure messages
	elapsed  time.Duration
	cpuSec   float64 // server CPU consumed during the phase, all nodes
	peakRSS  int64   // the servers' resident-set high-water marks at the end of the phase, summed
	lagBytes []float64
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   15 * time.Second, // the slowest class answers in 0.1 s
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// run drives the client for dur and reads server CPU and memory around it.
func (l *load) run(ctx context.Context, dur time.Duration) (*loadResult, error) {
	res := &loadResult{}
	cpu0, err := l.topo.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)

	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
			req := l.stream.next()
			var rec *recorder
			if n/l.stream.sum%2 == 1 {
				rec = l.rec
			}
			s, body, err := post(ctx, l.client, l.topo.target(classes[req.class].write).url+"/query", req, rec)
			res.samples = append(res.samples, s)
			if l.acks != nil && classes[req.class].write {
				l.acks.record(req, s.ok)
			}
			if err != nil {
				if len(res.errors) < 5 {
					res.errors = append(res.errors, fmt.Sprintf("%s: %v", classes[req.class].name, err))
				}
			} else if l.keep && n%sampleEvery == 0 {
				res.kept = append(res.kept, kept{req, body})
			}
		}
	}()

	// This goroutine waits for the client; meanwhile it forces the checkpoint
	// and, on a cluster, polls the follower's lag at 10 Hz.
	var lagTick <-chan time.Time
	if l.topo.cluster {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		lagTick = tick.C
	}
	var ckpt <-chan time.Time
	ckptErr := make(chan error, 1)
	if l.checkpointAt > 0 {
		ckpt = time.After(l.checkpointAt)
	}
	pending := false
waiting:
	for {
		select {
		case <-clientDone:
			break waiting
		case <-ckpt:
			pending = true
			go func() { ckptErr <- l.topo.nodes[0].checkpoint(ctx) }()
		case <-lagTick:
			if st, err := l.topo.nodes[1].stats(ctx); err == nil && st.Replication.LagBytes >= 0 {
				res.lagBytes = append(res.lagBytes, float64(st.Replication.LagBytes))
			}
		}
	}
	res.elapsed = time.Since(start)
	if pending {
		if err := <-ckptErr; err != nil {
			return nil, err
		}
	}
	cpu1, err := l.topo.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpuSec = cpu1 - cpu0
	if res.peakRSS, err = l.topo.peakRSSBytes(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return res, nil
}

// post sends one request and classifies the reply, recording spans around it
// when rec is set. The latency clock stops when the whole body has arrived;
// decoding it is the harness's cost, not the server's.
func post(ctx context.Context, client *http.Client, url string, req request, rec *recorder) (sample, []byte, error) {
	s := sample{class: req.class, spans: rec != nil}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(req.body))
	if err != nil {
		return s, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		s.lat = time.Since(t0)
		return s, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	s.lat = t1.Sub(t0)
	if err != nil {
		return s, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	var head struct {
		Count  int     `json:"count"`
		TimeMs float64 `json:"timeMs"`
	}
	if err := json.Unmarshal(body, &head); err != nil {
		return s, nil, fmt.Errorf("undecodable reply: %w", err)
	}
	s.srvMs, s.ok = head.TimeMs, true
	if rec != nil {
		rec.httpSpan(classes[req.class].name, t0, t1, time.Duration(head.TimeMs*float64(time.Millisecond)))
	}
	return s, body, nil
}
