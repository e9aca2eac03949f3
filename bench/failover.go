package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// failoverRate is the fixed schedule writes are sent on while the leader is
// down: an open loop, so the requests due during the leaderless gap are sent
// (and refused) rather than silently not generated.
const failoverRate = 50 // per second

type failoverResult struct {
	seconds float64 // leader SIGKILL to the first write acknowledged after it
	sent    int
}

// runFailover SIGKILLs the leader once while write-create requests arrive on
// schedule at a follower, which redirects them to whoever leads. It leaves
// topo holding the survivors, new leader first. One kill gives one sample:
// the result is diagnostic, not gated.
func runFailover(ctx context.Context, topo *topology, acks *ackLog, w *workload, seed int64) (*failoverResult, error) {
	s := newStream(w, []weighted{{"write-create", 1}}, seed, 3, people)
	client := newClient()
	client.Timeout = 3 * time.Second
	url := topo.nodes[1].url + "/query"

	var (
		mu       sync.Mutex
		killedAt time.Time
		firstAck time.Time
		wg       sync.WaitGroup
	)
	res := &failoverResult{}
	tick := time.NewTicker(time.Second / failoverRate)
	defer tick.Stop()
	start := time.Now()
	killAfter := 500 * time.Millisecond
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return nil, fmt.Errorf("failover: no write acknowledged after the leader was killed: %w", ctx.Err())
		case now := <-tick.C:
			mu.Lock()
			done := !firstAck.IsZero() && now.Sub(firstAck) > 500*time.Millisecond
			mu.Unlock()
			if done {
				wg.Wait()
				mu.Lock()
				res.seconds = firstAck.Sub(killedAt).Seconds()
				mu.Unlock()
				return res, topo.adoptLeader(ctx)
			}
			if killedAt.IsZero() && now.Sub(start) >= killAfter {
				// Kill from the scheduler so the schedule itself never waits:
				// SIGKILL plus reaping takes well under one 20 ms slot.
				mu.Lock()
				killedAt = time.Now()
				mu.Unlock()
				topo.nodes[0].kill()
			}
			req := s.next()
			res.sent++
			wg.Add(1)
			// One goroutine per due request: at most rate × client timeout
			// (150) are alive at once.
			go func() {
				defer wg.Done()
				sent := time.Now()
				smp, _, _ := post(ctx, client, url, req, nil) // a refusal is the expected outcome while leaderless
				acks.record(req, smp.ok)
				mu.Lock()
				if smp.ok && !killedAt.IsZero() && sent.After(killedAt) && firstAck.IsZero() {
					firstAck = time.Now()
				}
				mu.Unlock()
			}()
		}
	}
}

// adoptLeader drops the killed leader from the topology and moves the node
// that now leads to the front.
func (t *topology) adoptLeader(ctx context.Context) error {
	survivors := t.nodes[1:]
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		for i, n := range survivors {
			if h, ok := n.health(ctx); ok && h.Role == "leader" {
				t.nodes = []*node{n, survivors[1-i]}
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("failover: no surviving node reports itself leader: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}
