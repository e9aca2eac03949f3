// Package core ties the Cypher pipeline together: parsing, semantic
// analysis, planning and execution. It is the engine behind the public
// cypher package; each query is compiled into a plan over the target graph
// and evaluated starting from the unit table, exactly as the paper's
// semantics prescribes (output(Q, G) = [[Q]]_G(T())).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/result"
	"repro/internal/semantic"
	"repro/internal/storage"
	_ "repro/internal/temporal" // registers the Cypher 10 temporal functions
	"repro/internal/value"
)

// Morphism re-exports the execution engine's pattern-matching modes.
type Morphism = exec.Morphism

// Pattern-matching modes (see Section 8 of the paper, "configurable
// morphisms").
const (
	EdgeIsomorphism = exec.EdgeIsomorphism
	Homomorphism    = exec.Homomorphism
	NodeIsomorphism = exec.NodeIsomorphism
)

// Options configures an Engine.
type Options struct {
	// Morphism selects the pattern-matching semantics (default:
	// relationship isomorphism, Cypher's semantics).
	Morphism Morphism
	// MaxVarLengthDepth caps unbounded variable-length expansion in
	// homomorphism mode (default 15).
	MaxVarLengthDepth int
	// Parallelism is the maximum number of workers a single read-only query
	// may use (morsel-driven execution of the scan→filter→project pipeline).
	// Zero or one keeps every query on the serial path. Plans that are not
	// parallel-safe (updating queries, UNION, LIMIT without a preceding
	// barrier, ...) always run serially.
	Parallelism int
	// MorselSize overrides the number of scan rows per parallel work unit
	// (default graph.DefaultMorselSize).
	MorselSize int
	// BatchSize overrides the number of rows per batch in the vectorized
	// pipeline (default exec.DefaultBatchSize, aligned with the morsel
	// size). Negative disables vectorized execution.
	BatchSize int
	// DefaultTimeout bounds every query's wall-clock execution time unless a
	// RunOptions override says otherwise. Zero means no engine-level
	// deadline (the caller's context may still carry one).
	DefaultTimeout time.Duration
	// MemoryBudget bounds the bytes of materialized state (sort buffers,
	// aggregation groups, distinct sets, result rows) a single query may
	// accumulate; exceeding it fails that query with a
	// *exec.ResourceExhaustedError. Zero means unlimited.
	MemoryBudget int64
}

// Engine executes Cypher queries against a single property graph. It is safe
// for concurrent use: queries are classified at parse time as read-only or
// mutating (from the AST's clause list). Read-only queries pin an immutable
// published version of the graph (MVCC, see graph.VersionedStore) for their
// whole execution and never take the write lock, so a slow write query no
// longer stalls the read fleet; mutating queries serialize among themselves
// and publish their result atomically at WAL group-commit.
type Engine struct {
	// writeMu serializes mutators: write queries, index creation, imports,
	// checkpoints and Close. Readers never take it. Snapshot stability for
	// readers comes from the versioned store instead: a pinned version is
	// not mutated until every pin on it is released, which is what makes the
	// deliberately lock-free entity accessors (Node.Property, Labels,
	// adjacency) memory-safe. All concurrent graph access must go through
	// the engine; direct store access is safe only single-threaded or
	// externally synchronized (graph.Graph's RWMutex guards the store's own
	// maps and indexes, not the entities they point to).
	writeMu sync.Mutex
	graph   *graph.Graph
	// versions is the MVCC store over the graph: readers pin the published
	// version, writers prepare against the primary and publish at commit.
	versions *graph.VersionedStore
	opts     Options

	// astMu guards astCache, which maps query text to parsed and
	// semantically checked ASTs. Parsing does not depend on the graph, so
	// these entries never need invalidation.
	astMu    sync.Mutex
	astCache map[string]*ast.Query

	// plans caches compiled plans keyed by query text, validated against
	// the graph's mutation epoch (see plancache.go). A hot query skips
	// lexer, parser, semantic analysis and planning entirely.
	plans *planCache

	// durable, when set, is the persistence layer: the engine's mutation
	// hook journals every change into it, and the engine group-commits the
	// journal at the end of each write query (still under the write lock, so
	// the WAL's batch boundaries are exactly the query boundaries). It is an
	// atomic pointer because leader election swaps it at promotion/demotion
	// while readers (the mutation hook, Stats) may be concurrently loading it.
	durable atomic.Pointer[storage.Store]

	// commitHook, when set, runs inside the write path after the WAL append
	// and before the new version is published. It is a seam for the
	// crash-recovery tests (kill the process in the append/publish window)
	// and a natural tap point for future replication. Set before sharing.
	commitHook func()

	// role distinguishes a writable engine from a read-only replica (and a
	// replica that currently knows no leader). nil means writer. See
	// replicate.go for the transitions; an atomic pointer because elections
	// flip the role while queries are in flight.
	role atomic.Pointer[replicaRole]

	// fence is the newest election term this engine has acknowledged;
	// ApplyReplicatedTerm refuses batches from older terms (a deposed
	// leader's late writes). See replicate.go.
	fence atomic.Uint64

	// gov holds the engine-level governance counters (see GovernanceStats).
	// All atomic; the serving layer's admission controller contributes the
	// queue-side numbers.
	gov govCounters
}

// govCounters are the engine's query-lifecycle counters.
type govCounters struct {
	inFlight         atomic.Int64
	canceled         atomic.Uint64
	deadlineExceeded atomic.Uint64
	memoryExhausted  atomic.Uint64
	panicsRecovered  atomic.Uint64
	peakQueryBytes   atomic.Int64
}

// GovernanceStats is a snapshot of the query-lifecycle counters. The engine
// fills the execution-side fields; serving layers running an admission
// controller (cmd/cypher-serve) fill the queue-side fields before rendering.
type GovernanceStats struct {
	// InFlight is the number of queries currently executing in the engine.
	InFlight int64
	// Queued is the number of requests waiting in the admission queue.
	Queued int64
	// Admitted counts requests that made it past admission control.
	Admitted uint64
	// Rejected counts requests refused by admission control (queue full or
	// wait deadline exceeded).
	Rejected uint64
	// Canceled counts queries stopped by caller cancellation (client
	// disconnect, explicit cancel).
	Canceled uint64
	// DeadlineExceeded counts queries killed by a deadline.
	DeadlineExceeded uint64
	// MemoryExhausted counts queries killed by their memory budget.
	MemoryExhausted uint64
	// PanicsRecovered counts operator panics contained at the query boundary.
	PanicsRecovered uint64
	// PeakQueryBytes is the largest materialized-byte high-water mark any
	// single governed query has reached.
	PeakQueryBytes int64
}

// GovernanceStats returns the engine's current governance counters (the
// queue-side fields are zero; serving layers overlay them).
func (e *Engine) GovernanceStats() GovernanceStats {
	return GovernanceStats{
		InFlight:         e.gov.inFlight.Load(),
		Canceled:         e.gov.canceled.Load(),
		DeadlineExceeded: e.gov.deadlineExceeded.Load(),
		MemoryExhausted:  e.gov.memoryExhausted.Load(),
		PanicsRecovered:  e.gov.panicsRecovered.Load(),
		PeakQueryBytes:   e.gov.peakQueryBytes.Load(),
	}
}

// NewEngine creates an engine over the graph. It installs itself as the
// graph's mutation hook (feeding the WAL journal and the MVCC replica
// backlog), so a graph must not be wrapped by two live engines at once.
func NewEngine(g *graph.Graph, opts Options) *Engine {
	e := &Engine{
		graph:    g,
		versions: graph.NewVersionedStore(g),
		opts:     opts,
		astCache: map[string]*ast.Query{},
		plans:    newPlanCache(0),
	}
	g.SetMutationHook(e.onMutation)
	return e
}

// onMutation is the graph's mutation hook: it runs inside the graph's write
// lock, in commit order, and fans each record out to the WAL journal (when
// durable) and the MVCC replica backlog.
func (e *Engine) onMutation(m graph.Mutation) {
	if d := e.durable.Load(); d != nil {
		d.Record(m)
	}
	e.versions.Capture(m)
}

// Graph returns the engine's underlying graph — the MVCC primary, whose
// identity is stable for the engine's lifetime.
func (e *Engine) Graph() *graph.Graph { return e.graph }

// MVCCStats reports the versioned store's counters: published epoch, version
// retention, active reader pins, writer drain waits.
func (e *Engine) MVCCStats() graph.MVCCStats { return e.versions.Stats() }

// SetCommitHook installs fn to run inside the write path between the WAL
// append and the version publish. Call before the engine is shared between
// goroutines. Used by the crash tests to die in that exact window.
func (e *Engine) SetCommitHook(fn func()) { e.commitHook = fn }

// SetDurability attaches an opened storage layer; from here on the engine's
// mutation hook journals every change into it. Call before the engine is
// shared between goroutines (recovery must already have happened, so
// replayed mutations are not re-journaled).
func (e *Engine) SetDurability(s *storage.Store) {
	e.durable.Store(s)
}

// Durability returns the engine's storage layer, or nil for a purely
// in-memory engine.
func (e *Engine) Durability() *storage.Store { return e.durable.Load() }

// Checkpoint writes a point-in-time snapshot and truncates the WAL. It holds
// the write lock: concurrent readers keep running (the snapshot only reads
// the primary, which is the published head between writes), writers wait for
// the snapshot. A no-op without a storage layer.
func (e *Engine) Checkpoint() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	d := e.durable.Load()
	if d == nil {
		return nil
	}
	return d.Checkpoint(e.graph)
}

// Close flushes and closes the storage layer (if any). The engine must not
// run further queries afterwards.
func (e *Engine) Close() error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	d := e.durable.Load()
	if d == nil {
		return nil
	}
	return d.Close()
}

// CreateIndex declares a property index under the engine's write discipline,
// journaling and publishing it like any other mutation.
func (e *Engine) CreateIndex(label, property string) error {
	if err := e.readOnlyErr(); err != nil {
		return err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.versions.BeginWrite()
	defer e.versions.Publish()
	e.graph.CreateIndex(label, property)
	err := e.commitDurable()
	if e.commitHook != nil {
		e.commitHook()
	}
	return err
}

// commitDurable group-commits the journaled mutations of the current write.
// Callers hold the write lock.
func (e *Engine) commitDurable() error {
	d := e.durable.Load()
	if d == nil {
		return nil
	}
	return d.Commit()
}

// ImportFrom copies the contents of src (labels, properties, relationships,
// indexes) into the engine's graph, remapping identifiers. It is used to
// seed a freshly created durable graph from an example dataset; the copy is
// journaled and committed like one big write query — including on error,
// since partially-imported entities are already visible in memory and the
// WAL must mirror them (the same no-rollback contract as Run).
func (e *Engine) ImportFrom(src *graph.Graph) error {
	if err := e.readOnlyErr(); err != nil {
		return err
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.versions.BeginWrite()
	defer e.versions.Publish()
	err := e.importLocked(src)
	if cerr := e.commitDurable(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (e *Engine) importLocked(src *graph.Graph) error {
	for _, idx := range src.Indexes() {
		e.graph.CreateIndex(idx[0], idx[1])
	}
	nodes := map[int64]*graph.Node{}
	for _, n := range src.Nodes() {
		nodes[n.ID()] = e.graph.CreateNode(n.Labels(), n.Properties())
	}
	for _, r := range src.Relationships() {
		if _, err := e.graph.CreateRelationship(nodes[r.StartNodeID()], nodes[r.EndNodeID()], r.RelType(), r.Properties()); err != nil {
			return err
		}
	}
	return nil
}

// Result is the outcome of running a query: the result table plus summary
// counters.
type Result struct {
	Table *result.Table
	// plan is the executed plan, rendered by Plan only when asked: a plan
	// is immutable once it leaves the planner, so rendering later gives the
	// same text as rendering at execution time.
	plan *plan.Plan
	// ReadOnly reports whether the query contained no updating clauses.
	ReadOnly bool
	// Parallelism is the number of workers the execution actually used
	// (1 for a serial run).
	Parallelism int
}

// Plan returns the textual form of the executed plan (the EXPLAIN text
// without its runtime parallelism line).
func (r *Result) Plan() string { return r.plan.String() }

// Columns returns the result column names.
func (r *Result) Columns() []string { return r.Table.Columns }

// Rows returns the result rows in column order.
func (r *Result) Rows() [][]value.Value { return r.Table.Rows() }

// Len returns the number of result rows.
func (r *Result) Len() int { return r.Table.Len() }

// parseChecked parses and semantically checks the query, with a per-engine
// cache of checked ASTs (queries are often re-run with different parameters,
// and neither parsing nor semantic analysis depends on the graph).
func (e *Engine) parseChecked(query string) (*ast.Query, error) {
	e.astMu.Lock()
	if q, ok := e.astCache[query]; ok {
		e.astMu.Unlock()
		return q, nil
	}
	e.astMu.Unlock()
	q, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	if err := semantic.Check(q); err != nil {
		return nil, err
	}
	e.astMu.Lock()
	if len(e.astCache) > defaultPlanCacheSize {
		e.astCache = map[string]*ast.Query{}
	}
	e.astCache[query] = q
	e.astMu.Unlock()
	return q, nil
}

// planFor returns a plan for the (already checked) query against the given
// graph version, consulting the plan cache first. The cache is keyed on the
// PINNED version's epoch — not the live graph's — so a reader pinned to an
// older version can never be handed a plan compiled against statistics or
// indexes newer than its row source. Callers must keep g pinned (readers) or
// hold the write lock (writers) so g's epoch cannot move between the cache
// lookup and the compile.
func (e *Engine) planFor(g *graph.Graph, query string, q *ast.Query) (*plan.Plan, error) {
	return e.plans.getOrCompile(query, g.Epoch(), func() (*plan.Plan, error) {
		return planner.New(g).Plan(q)
	})
}

// RunOptions carries per-query governance overrides for RunContext.
type RunOptions struct {
	// Timeout overrides the engine's DefaultTimeout for this query: >0 sets
	// a deadline, 0 inherits the engine default, <0 disables the engine
	// deadline (the caller's context may still carry one).
	Timeout time.Duration
	// MemoryBudget overrides the engine's MemoryBudget with the same
	// convention: >0 sets a budget, 0 inherits, <0 disables.
	MemoryBudget int64
}

// Run parses, checks, plans and executes the query with the given
// parameters (which may be nil). The query is still governed by the engine's
// DefaultTimeout and MemoryBudget options; use RunContext to attach a
// cancelable context or per-query overrides.
func (e *Engine) Run(query string, params map[string]value.Value) (*Result, error) {
	return e.RunContext(context.Background(), query, params, RunOptions{})
}

// RunContext runs the query under the caller's context plus the resolved
// deadline and memory budget. Cancellation (client disconnect, deadline) is
// observed cooperatively at morsel/batch boundaries and every
// exec.CancelCheckStride rows in serial loops; the canceled query fails with
// *exec.CanceledError while every other query proceeds untouched. A query
// that exceeds its memory budget fails with *exec.ResourceExhaustedError; a
// panicking operator is contained at the query boundary and surfaces as
// *exec.PanicError. In all three cases the engine remains fully usable —
// MVCC pins, the write lock and pooled buffers are released on every exit
// path.
//
// A canceled WRITE query keeps whatever mutations it applied before the
// check fired: the in-memory store has no rollback, so partial effects are
// journaled and published exactly like any other failed write (the engine's
// long-standing no-rollback contract). Callers who need all-or-nothing
// writes should not set deadlines tighter than their writes.
func (e *Engine) RunContext(ctx context.Context, query string, params map[string]value.Value, ro RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := ro.Timeout
	if timeout == 0 {
		timeout = e.opts.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	budget := ro.MemoryBudget
	if budget == 0 {
		budget = e.opts.MemoryBudget
	}
	if budget < 0 {
		budget = 0
	}
	// Only build governance state when there is something to govern: plain
	// Run on an engine without timeout/budget options keeps the exact
	// pre-governance fast path (qc == nil short-circuits every check).
	var qc *exec.QueryCtx
	if ctx.Done() != nil || budget > 0 {
		qc = exec.NewQueryCtx(ctx, budget)
	}
	e.gov.inFlight.Add(1)
	defer e.gov.inFlight.Add(-1)
	res, err := e.runGoverned(qc, query, params)
	e.observeGoverned(qc, err)
	return res, err
}

// observeGoverned classifies a query outcome into the governance counters
// and folds the query's materialized high-water mark into the peak gauge.
func (e *Engine) observeGoverned(qc *exec.QueryCtx, err error) {
	if used := qc.UsedBytes(); used > 0 {
		for {
			cur := e.gov.peakQueryBytes.Load()
			if used <= cur || e.gov.peakQueryBytes.CompareAndSwap(cur, used) {
				break
			}
		}
	}
	if err == nil {
		return
	}
	var (
		pe *exec.PanicError
		re *exec.ResourceExhaustedError
		ce *exec.CanceledError
	)
	switch {
	case errors.As(err, &pe):
		e.gov.panicsRecovered.Add(1)
	case errors.As(err, &re):
		e.gov.memoryExhausted.Add(1)
	case errors.As(err, &ce):
		if errors.Is(err, context.DeadlineExceeded) {
			e.gov.deadlineExceeded.Add(1)
		} else {
			e.gov.canceled.Add(1)
		}
	}
}

// runGoverned is the Run body proper: classify, pin or lock, execute.
func (e *Engine) runGoverned(qc *exec.QueryCtx, query string, params map[string]value.Value) (*Result, error) {
	q, err := e.parseChecked(query)
	if err != nil {
		return nil, err
	}
	if q.IsReadOnly() {
		// Readers pin the published version for their whole execution and
		// never block on (or behind) a writer: a write query in progress
		// simply means the pin lands on the previous committed version.
		v := e.versions.Pin()
		defer e.versions.Unpin(v)
		return e.runOn(v, qc, query, q, params)
	}
	// Followers serve reads only; the write belongs on the leader.
	if err := e.readOnlyErr(); err != nil {
		return nil, err
	}
	// The locked section runs in a closure so its deferred Publish/Unlock
	// also fire on a panic — a manual Unlock after a panicking query would
	// leave the write lock held forever and wedge the engine. The durable
	// store is captured under the lock (elections swap it) and reused for
	// the post-lock fsync so the append and the sync hit the same store.
	var d *storage.Store
	res, ticket, err := func() (res *Result, ticket storage.CommitTicket, err error) {
		e.writeMu.Lock()
		defer e.writeMu.Unlock()
		// Re-check the role under the lock: a demotion that raced the check
		// above completed while this writer queued, and applying its mutations
		// now would diverge this node from the new leader's log.
		if rerr := e.readOnlyErr(); rerr != nil {
			return nil, storage.CommitTicket{}, rerr
		}
		d = e.durable.Load()
		// BeginWrite publishes the last committed version for readers and
		// waits for pins on the primary to drain; from here the writer owns
		// the primary and mutates it in place.
		target := e.versions.BeginWrite()
		// Publish even when the query failed partway (deferred, so also on
		// panic): the in-memory store has no rollback, so whatever mutations
		// were applied before the error are real, and readers must converge
		// to the same state the memory holds.
		defer e.versions.Publish()
		res, err = e.runOn(target, qc, query, q, params)
		// Journal the batch even when the query failed partway, for the same
		// no-rollback reason — otherwise a restart would silently diverge
		// from what clients observed. The append happens under the write
		// lock and BEFORE the publish (commit ordering: a version is only
		// readable once its batch is in the log); the fsync deliberately
		// happens AFTER the lock is released, so the next writer can append
		// while this one waits on the disk and concurrent committers share
		// fsyncs (group commit).
		if d != nil {
			t, aerr := d.Append()
			if aerr != nil && err == nil {
				err = fmt.Errorf("query applied in memory but WAL append failed: %w", aerr)
			}
			ticket = t
		}
		if e.commitHook != nil {
			e.commitHook()
		}
		return res, ticket, err
	}()
	if d != nil {
		if serr := d.Sync(ticket); serr != nil && err == nil {
			err = fmt.Errorf("query applied in memory but WAL fsync failed: %w", serr)
		}
	}
	return res, err
}

// runOn plans and executes an already-checked query against one graph
// version: the pinned published version for readers, the exclusively-owned
// primary for writers (which is how a write query reads its own earlier
// clauses' writes).
func (e *Engine) runOn(g *graph.Graph, qc *exec.QueryCtx, query string, q *ast.Query, params map[string]value.Value) (*Result, error) {
	pl, err := e.planFor(g, query, q)
	if err != nil {
		return nil, err
	}
	ex := exec.New(g, params, exec.Options{
		Morphism:          e.opts.Morphism,
		MaxVarLengthDepth: e.opts.MaxVarLengthDepth,
		Parallelism:       e.opts.Parallelism,
		MorselSize:        e.opts.MorselSize,
		BatchSize:         e.opts.BatchSize,
		QueryCtx:          qc,
	})
	tbl, err := ex.Execute(pl)
	if err != nil {
		return nil, err
	}
	// Snapshot entity values while the version is still pinned: results
	// outlive the query, and a later writer must not race readers of
	// returned nodes/relationships.
	tbl.DetachEntities()
	return &Result{
		Table:       tbl,
		plan:        pl,
		ReadOnly:    pl.ReadOnly,
		Parallelism: ex.UsedParallelism(),
	}, nil
}

// Explain parses, checks and plans the query without executing it, returning
// the plan description. Planning only reads the graph, so Explain pins the
// published version like a reader regardless of whether the query would
// mutate.
func (e *Engine) Explain(query string) (string, error) {
	q, err := e.parseChecked(query)
	if err != nil {
		return "", err
	}
	v := e.versions.Pin()
	defer e.versions.Unpin(v)
	pl, err := e.planFor(v, query, q)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%sruntime parallelism: %d\n", pl.String(), e.chosenParallelism(v, pl)), nil
}

// chosenParallelism mirrors the executor's runtime decision for the plan:
// the configured worker budget, capped by the number of morsels the scan
// currently splits into, and 1 for ineligible plans or scans that fit in a
// single morsel. For the two scan leaves the morsel count is exact; for
// index-seek leaves the true result size depends on operand values that
// EXPLAIN does not have (parameters), so the count comes from the planner's
// cardinality estimate, bounded by the label cardinality — the executor's
// actual worker count (Result.Parallelism) can be lower when the seek
// returns fewer rows than estimated. Callers keep g pinned so the scan
// cardinality is stable.
func (e *Engine) chosenParallelism(g *graph.Graph, pl *plan.Plan) int {
	if e.opts.Parallelism <= 1 || pl.Pipeline == nil || !pl.Pipeline.Parallel() {
		return 1
	}
	morselSize := e.opts.MorselSize
	if morselSize <= 0 {
		morselSize = graph.DefaultMorselSize
	}
	stats := g.Stats()
	var n int
	switch s := pl.Pipeline.Scan.(type) {
	case *plan.AllNodesScan:
		n = stats.NodeCount
	case *plan.NodeByLabelScan:
		n = stats.NodesByLabel[s.Label]
	case *plan.NodeIndexSeek, *plan.NodeIndexRangeSeek, *plan.NodeIndexPrefixSeek:
		var label string
		switch seek := s.(type) {
		case *plan.NodeIndexSeek:
			label = seek.Label
		case *plan.NodeIndexRangeSeek:
			label = seek.Label
		case *plan.NodeIndexPrefixSeek:
			label = seek.Label
		}
		// The label cardinality bounds any seek; plans without estimates
		// (hand-built, legacy) report that bound.
		n = stats.NodesByLabel[label]
		if est, ok := pl.Est[s]; ok && int(est.Rows) < n {
			n = int(est.Rows)
		}
	default:
		return 1
	}
	morsels := (n + morselSize - 1) / morselSize
	if morsels < 2 {
		return 1
	}
	if e.opts.Parallelism < morsels {
		return e.opts.Parallelism
	}
	return morsels
}

// PlanCacheStats reports plan-cache effectiveness counters.
func (e *Engine) PlanCacheStats() CacheStats { return e.plans.stats() }

// RunWithGoParams is a convenience wrapper that converts native Go parameter
// values into Cypher values.
func (e *Engine) RunWithGoParams(query string, params map[string]any) (*Result, error) {
	converted, err := ConvertParams(params)
	if err != nil {
		return nil, err
	}
	return e.Run(query, converted)
}

// RunContextWithGoParams is RunContext with native Go parameter conversion.
func (e *Engine) RunContextWithGoParams(ctx context.Context, query string, params map[string]any, ro RunOptions) (*Result, error) {
	converted, err := ConvertParams(params)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, query, converted, ro)
}

// ConvertParams converts a map of native Go values into Cypher values.
func ConvertParams(params map[string]any) (map[string]value.Value, error) {
	if params == nil {
		return nil, nil
	}
	out := make(map[string]value.Value, len(params))
	for k, v := range params {
		cv, err := value.FromGo(v)
		if err != nil {
			return nil, fmt.Errorf("parameter $%s: %w", k, err)
		}
		out[k] = cv
	}
	return out, nil
}
