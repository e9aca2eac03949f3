package core

// MVCC-specific engine behaviour: version/pin accounting surfaced through
// MVCCStats, and the plan-cache discipline the versioned reads depend on —
// lookups key on the PINNED version's epoch, never the live graph's, and the
// cache retains plans for the last planEpochsRetained epochs so a publish
// does not evict the plan still-pinned readers are using.

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

// TestPlanCacheKeysOnPinnedEpoch is the regression test for the pinned-epoch
// cache fix: a reader that races a commit (here: parked deterministically in
// the commit hook, after the index landed on the primary but before the
// version published) compiles its plan against the OLD pinned version. That
// plan must be cached under the old epoch — if it were cached under the live
// graph's epoch (the bug), the post-commit reader below would hit a stale
// label-scan plan and never use the new index.
func TestPlanCacheKeysOnPinnedEpoch(t *testing.T) {
	e := emptyEngine()
	run(t, e, `UNWIND range(1, 200) AS i CREATE (:P {p: i})`)

	const q = `MATCH (n:P {p: 5}) RETURN n.p`

	entered := make(chan struct{})
	release := make(chan struct{})
	e.SetCommitHook(func() {
		close(entered)
		<-release
	})
	done := make(chan error, 1)
	go func() { done <- e.CreateIndex("P", "p") }()
	<-entered

	// Mid-commit: the pinned version has no index, so this read must plan
	// (and cache) a scan for the OLD epoch — and still return correct rows.
	res := run(t, e, q)
	if got := rows(res); len(got) != 1 || got[0][0] != int64(5) {
		t.Fatalf("mid-commit read = %v, want [[5]]", got)
	}
	if strings.Contains(res.Plan(), "NodeIndexSeek") {
		t.Fatalf("mid-commit read used an index its pinned version does not have:\n%s", res.Plan())
	}

	e.SetCommitHook(nil)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("CreateIndex failed: %v", err)
	}

	// Post-commit: the live epoch moved, so the stale scan plan must not be
	// served; a fresh compile sees the index.
	res = run(t, e, q)
	if got := rows(res); len(got) != 1 || got[0][0] != int64(5) {
		t.Fatalf("post-commit read = %v, want [[5]]", got)
	}
	if !strings.Contains(res.Plan(), "NodeIndexSeek") {
		t.Fatalf("post-commit read served the pre-index plan (cache keyed on wrong epoch):\n%s", res.Plan())
	}
	if st := e.PlanCacheStats(); st.Invalidations == 0 {
		t.Errorf("epoch advance not counted as invalidation: %+v", st)
	}
}

func TestPlanCacheRetainsTwoEpochs(t *testing.T) {
	c := newPlanCache(0)
	mk := func() (*plan.Plan, error) { return &plan.Plan{}, nil }
	fail := func() (*plan.Plan, error) { t.Fatal("unexpected compile"); return nil, nil }

	p1, _ := c.getOrCompile("q", 1, mk)
	p2, _ := c.getOrCompile("q", 2, mk)
	if p1 == p2 {
		t.Fatal("distinct epochs shared a compilation")
	}
	// Both epochs answer from cache: the old plan survived the new publish.
	if got, _ := c.getOrCompile("q", 2, fail); got != p2 {
		t.Fatal("epoch-2 hit returned the wrong plan")
	}
	if got, _ := c.getOrCompile("q", 1, fail); got != p1 {
		t.Fatal("epoch-1 plan evicted by the epoch-2 insert")
	}
	st := c.stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", st.Hits, st.Misses)
	}
	// An older-epoch lookup is a plain miss, never an invalidation…
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (only the 1→2 advance)", st.Invalidations)
	}
	// …and a third epoch drops the oldest retained plan (K=2).
	c.getOrCompile("q", 3, mk)
	if c.stats().Entries != 2 {
		t.Fatalf("entries after third epoch = %d, want 2", c.stats().Entries)
	}
	compiled := false
	c.getOrCompile("q", 1, func() (*plan.Plan, error) { compiled = true; return &plan.Plan{}, nil })
	if !compiled {
		t.Fatal("epoch 1 should have aged out after epoch 3 was cached")
	}
}

func TestPlanCacheOldEpochInsertKeepsNewest(t *testing.T) {
	// A pinned reader finishing its compile AFTER a writer published must
	// not evict the live head's plan: inserts keep the list sorted by epoch
	// with the newest retained.
	c := newPlanCache(0)
	mk := func() (*plan.Plan, error) { return &plan.Plan{}, nil }
	fail := func() (*plan.Plan, error) { t.Fatal("unexpected compile"); return nil, nil }

	pNew, _ := c.getOrCompile("q", 10, mk)
	c.getOrCompile("q", 4, mk) // late pinned-reader insert at an older epoch
	if got, _ := c.getOrCompile("q", 10, fail); got != pNew {
		t.Fatal("older-epoch insert displaced the newest plan")
	}
	if got, _ := c.getOrCompile("q", 4, fail); got == pNew {
		t.Fatal("older epoch resolved to the newer plan")
	}
}

func TestMVCCStatsCounters(t *testing.T) {
	e := emptyEngine()
	st := e.MVCCStats()
	if st.Enabled || st.Versions != 1 || st.Publishes != 0 {
		t.Fatalf("fresh engine stats = %+v", st)
	}

	run(t, e, `CREATE (:A)`)
	run(t, e, `MATCH (a:A) RETURN a`)
	run(t, e, `CREATE (:B)`)

	st = e.MVCCStats()
	if !st.Enabled || st.Versions != 2 {
		t.Fatalf("after writes: %+v, want 2 versions", st)
	}
	if st.Publishes != 2 {
		t.Errorf("publishes = %d, want 2", st.Publishes)
	}
	if st.Pins == 0 {
		t.Errorf("read did not register a pin: %+v", st)
	}
	if st.ActivePins != 0 {
		t.Errorf("pins leaked: %+v", st)
	}
	if st.PublishedEpoch != st.LiveEpoch {
		t.Errorf("idle engine left an unpublished epoch: %+v", st)
	}
	if st.Rebuilds != 0 {
		t.Errorf("healthy engine rebuilt its replica: %+v", st)
	}
}
