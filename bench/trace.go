package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one, 0 for a root. Times
// are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. Every span is recorded
// from the harness's own files, around a call into a layer's public function
// or around an HTTP request; nothing inside the engine is instrumented.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newRequest() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

func (r *recorder) add(req, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// begin opens a span now; end closes it and returns its duration.
func (r *recorder) begin(req, parent int, name string) int {
	now := time.Now()
	return r.add(req, parent, name, now, now)
}

func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// time runs fn as a child span of parent and returns how long it took.
func (r *recorder) time(req, parent int, name string, fn func()) time.Duration {
	id := r.begin(req, parent, name)
	fn()
	return r.end(id)
}

// httpSpan records one HTTP request as the client saw it, with the time the
// server reported spending inside Graph.QueryContext as its child. The
// response does not say when in the exchange that time fell, so the child is
// centred; the parent's self time — HTTP, admission, JSON both ways, loopback
// — does not depend on where it sits.
func (r *recorder) httpSpan(class string, start, end time.Time, server time.Duration) {
	req := r.newRequest()
	id := r.add(req, 0, "http."+class, start, end)
	if total := end.Sub(start); server > total {
		server = total
	}
	lead := (end.Sub(start) - server) / 2
	r.add(req, id, "server.query", start.Add(lead), start.Add(lead+server))
}

// selfTimes returns each span's duration minus the part of it its children
// cover, by span ID. Children of one parent do not overlap each other here
// (each request is traced on one goroutine), so covered time is the sum of the
// children's overlaps with the parent.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		self[s.ID] = s.End - s.Start
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[p.ID] -= hi - lo
		}
	}
	return self
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since trace start", r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
