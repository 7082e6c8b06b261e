// Package engine is the concurrent query-execution layer of the system: it
// turns the one-shot algorithms of internal/core into a long-lived service.
// It adds four things the single-query path does not have:
//
//   - a bounded-concurrency session layer: at most MaxInFlight queries solve
//     at once, a bounded number more may wait for a slot, and everything
//     beyond that is rejected immediately with ErrOverloaded (admission
//     control for a daemon under heavy traffic);
//   - an LRU plan cache of parsed + translated queries (sPaQL AST and
//     translate.SILP), keyed by the canonical rendering of the parsed
//     statement and invalidated by the registered relation's version
//     counter, so repeated queries skip WHERE filtering, mask evaluation,
//     and bound derivation;
//   - a result cache behind the internal/resultcache.Store seam: evaluation
//     is fully deterministic for fixed (query, method, options, seeds) —
//     parallelism is bit-identical to sequential — so identical requests are
//     served from a response store without solving, or even waiting for a
//     solve slot. The default store is a node-local LRU; a Replicating store
//     write-through-shares entries between peer daemons, and the engine
//     materializes peer-received entries lazily against its own catalog;
//   - per-query timeouts and cancellation via context.Context, carried all
//     the way into scenario generation, validation, and the MILP search.
//
// Methods resolve through the core.Solver seam (SummarySearch, Naive, any
// registered solver such as internal/remote's "remote"), plus "sketch",
// which runs the partition-aware SketchRefine pipeline (internal/sketch)
// against the cached plan: the relation's cached Partitioning shards the
// medoid solve, shards solve concurrently, and one global refine follows.
// With Options.SketchSolver set to a remote solver, those shard sub-solves
// dispatch to worker daemons as v1 jobs — the multi-node deployment.
// Symmetrically, the engine is the worker side of that dispatch: a request
// carrying a client.SolveSpec solves a sub-problem of a registered table
// (subset view + bound overrides) and answers with the raw, bit-exact
// solution.
//
// Query evaluation itself runs with core.Options.Parallelism workers, so one
// query exploits all cores when the server is idle while concurrent queries
// share them under load. Parallel execution is bit-identical to sequential
// (see internal/core and internal/sketch), so the caches and the worker
// pools never change answers.
package engine

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/remote"
	"spq/internal/resultcache"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/stream"
	"spq/internal/translate"
)

// Catalog resolves table names to registered relations. *spq.DB implements
// it.
type Catalog interface {
	Table(name string) (*relation.Relation, bool)
}

// ErrOverloaded is returned (and mapped to HTTP 429) when the engine's
// admission queue is full.
var ErrOverloaded = errors.New("engine: overloaded, admission queue full")

// ErrBadQuery wraps client-side failures — parse errors, unknown tables or
// methods, untranslatable or deterministically infeasible queries — so the
// HTTP layer can map them to 400 while internal evaluation failures map
// to 500.
var ErrBadQuery = errors.New("engine: bad query")

// ErrUnknownMethod wraps ErrBadQuery for unrecognized evaluation methods,
// so the HTTP layer can report the dedicated "unknown_method" error code.
var ErrUnknownMethod = fmt.Errorf("%w: unknown method", ErrBadQuery)

// ErrDegraded is returned when an engine-applied budget (query class or
// request deadline) exhausted the evaluation before any feasible package
// was found — there was nothing to degrade to. It maps to HTTP 429 with the
// stable code "degraded_unavailable" (retrying under less load may
// succeed). Budget cuts that do hold a feasible incumbent return it with
// Result.Degraded set instead of this error.
var ErrDegraded = errors.New("engine: budget exhausted before a feasible package was found")

// Options tune the engine.
type Options struct {
	// MaxInFlight is the number of queries that may solve concurrently
	// (default: one per available CPU).
	MaxInFlight int
	// MaxQueue is the number of additional queries that may wait for a
	// solve slot before new arrivals are rejected with ErrOverloaded
	// (default 4×MaxInFlight; negative allows no waiting at all).
	MaxQueue int
	// PlanCacheSize is the LRU capacity of the plan cache in entries
	// (default 128; 0 uses the default, negative disables caching).
	PlanCacheSize int
	// ResultCacheSize is the LRU capacity of the result cache in entries
	// (default 256; 0 uses the default, negative disables caching).
	// Identical (query, method, options, seeds, timeout) requests against
	// an unchanged relation are answered from it without solving.
	ResultCacheSize int
	// DefaultTimeout bounds each query's evaluation when the request
	// carries no tighter deadline (default 60s).
	DefaultTimeout time.Duration
	// Parallelism is the per-query worker count handed to core.Options
	// when the request does not set one (default: one per available CPU).
	Parallelism int
	// MaxJobs bounds the async jobs that may be active (queued or running)
	// at once; Submit beyond it fails with ErrOverloaded (default
	// MaxInFlight+MaxQueue, which preserves the synchronous admission
	// behaviour for the legacy /query shim).
	MaxJobs int
	// JobHistory is the number of finished jobs retained for polling after
	// completion (default 64; negative retains none).
	JobHistory int
	// ResultCache, when non-nil, replaces the default in-memory result
	// store (a resultcache.Memory of ResultCacheSize entries). A
	// resultcache.Replicating store shares entries with peer daemons; its
	// peer endpoint is mounted by Handler and its counters join Stats.
	ResultCache resultcache.Store
	// SketchSolver, when non-nil, evaluates method=sketch sub-problems
	// (shard sketches, refine, fallback) in place of the sketch default
	// (core.SummarySearchSolver). Coordinator daemons set the remote solver
	// here to dispatch shards to workers. Per-request sketch options that
	// name a solver explicitly win.
	SketchSolver core.Solver
	// RemoteStats, when non-nil, is snapshotted into the remote_* Stats
	// fields (set by daemons that registered a remote solver).
	RemoteStats func() remote.Stats
	// ReadOnly disables the mutation surface: POST /v1/tables/{name}/deltas
	// answers 405 and Engine.ApplyDelta fails. Workers in a fleet should run
	// read-only so every mutation funnels through the coordinator.
	ReadOnly bool
	// Logger, when non-nil, receives the engine's structured events — today
	// the slow-query log (see SlowQuery).
	Logger *obs.Logger
	// SlowQuery, when > 0, logs every query whose end-to-end evaluation
	// (admission wait included) took at least this long, stamped with its
	// trace ID and the full rendered span tree.
	SlowQuery time.Duration
	// Tenants configures the weighted-fair admission scheduler: one lane per
	// named tenant plus the default lane (weight 1 unless configured).
	// Requests with unknown or empty tenant labels run in the default lane.
	// With no tenants configured every request shares the default lane and
	// admission degenerates to the former global FIFO.
	Tenants []TenantConfig
	// Classes maps query-class names to engine-applied evaluation budgets.
	// A binding class budget degrades the result to the anytime best-so-far
	// package (Result.Degraded) instead of failing the query.
	Classes map[string]ClassBudget
}

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxInFlight <= 0 {
		out.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if out.MaxQueue == 0 {
		out.MaxQueue = 4 * out.MaxInFlight
	} else if out.MaxQueue < 0 {
		out.MaxQueue = 0
	}
	if out.PlanCacheSize == 0 {
		out.PlanCacheSize = 128
	}
	if out.ResultCacheSize == 0 {
		out.ResultCacheSize = 256
	}
	if out.DefaultTimeout == 0 {
		out.DefaultTimeout = 60 * time.Second
	}
	if out.Parallelism == 0 {
		out.Parallelism = -1 // core: one worker per CPU
	}
	if out.MaxJobs <= 0 {
		out.MaxJobs = out.MaxInFlight + out.MaxQueue
	}
	if out.JobHistory == 0 {
		out.JobHistory = 64
	} else if out.JobHistory < 0 {
		out.JobHistory = 0
	}
	return out
}

// Request describes one query evaluation.
type Request struct {
	// Query is the sPaQL text.
	Query string
	// Method selects the algorithm: "" or "summarysearch" (the default),
	// "naive" for the SAA baseline, or "sketch" for the partition-aware
	// SketchRefine pipeline.
	Method string
	// Timeout overrides the engine's default per-query timeout when > 0.
	Timeout time.Duration
	// Options tune the evaluation; nil uses core defaults. Parallelism 0
	// inherits the engine's default.
	Options *core.Options
	// Sketch tunes the sketch pipeline when Method is "sketch"; nil uses
	// sketch defaults. Workers 0 inherits the engine's parallelism.
	Sketch *sketch.Options
	// Solve, when non-nil, restricts the evaluation to a sub-problem of the
	// query's table: the subset view named by the spec (base-relation tuple
	// indices), with the spec's variable-bound overrides applied after
	// translation. This is the worker side of remote dispatch
	// (internal/remote submits these); sub-problem plans are built per
	// request (no plan cache — every shard's subset differs) but results
	// are cached with the spec joined into the key.
	Solve *client.SolveSpec
	// Progress, when non-nil, receives per-iteration reports while the
	// solve runs (installed into core.Options; see core.Progress). It never
	// fires for result-cache hits, where no solve runs.
	Progress func(core.Progress)
	// TraceParent, when non-empty, is an obs.TraceParent rendering
	// ("<trace-id>/<span-name>") propagated from an upstream daemon (the
	// X-Spq-Trace header): the evaluation's trace adopts the upstream trace
	// ID so coordinator and worker spans correlate. Like Progress it is
	// purely observational and never joins cache keys.
	TraceParent string
	// Tenant names the admission lane ("" and unknown labels fold into the
	// default tenant). Tenancy shapes scheduling only: it never reaches the
	// solver, the result, or any cache key.
	Tenant string
	// Class names the query class whose Options.Classes budget bounds the
	// evaluation ("" = none). A binding class budget degrades rather than
	// fails (see Result.Degraded). Like Tenant it stays out of cache keys;
	// budget-cut results are never cached, so the keys cannot diverge.
	Class string
	// onAdmit, when non-nil, is called exactly once when the query acquires
	// a solve slot (after any admission wait). The job manager uses it to
	// move jobs from queued to running.
	onAdmit func()
}

// Result is the outcome of an engine query. Cached results are shared
// between requests: treat the Solution as read-only.
type Result struct {
	*core.Solution
	// Query is the parsed statement (from the plan cache on a hit).
	Query *spaql.Query
	// Rel is the WHERE-filtered relation the multiplicities index.
	Rel *relation.Relation
	// CacheHit reports whether the plan came from the plan cache.
	CacheHit bool
	// ResultCacheHit reports whether the whole result came from the result
	// cache (no solve ran; CacheHit is false in that case).
	ResultCacheHit bool
	// Sketch reports the sketch pipeline's stats for Method "sketch".
	Sketch *sketch.Stats
	// Wait is the time spent in the admission queue before solving.
	Wait time.Duration
	// Degraded reports that an engine-applied budget (query class or the
	// request deadline) cut the evaluation short: the Solution is the
	// anytime best-so-far feasible package, not the converged answer. Its
	// achieved gap is Solution.EpsUpper. Degraded results are never cached.
	Degraded bool
	// Trace is the evaluation's finished span tree, set only when the
	// engine minted the trace itself (a direct Query call with no ambient
	// span). Job submissions expose their trace via the job instead
	// (GET /v1/queries/{id}/trace).
	Trace *obs.SpanData
}

// Multiplicities returns the package as a map from base-relation tuple
// index to copy count.
func (r *Result) Multiplicities() map[int]int {
	out := map[int]int{}
	for i, x := range r.X {
		if x > 0 {
			out[r.Rel.OrigIndex(i)] += int(x + 0.5)
		}
	}
	return out
}

// lruCache is a tiny string-keyed LRU for the plan cache (the result cache
// moved behind internal/resultcache.Store, which synchronizes itself).
// The caller synchronizes access (the engine holds its mutex).
type lruCache struct {
	cap int
	ll  *list.List // front = most recently used; values are *lruEntry
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val any) {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) drop(key string) {
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

func (c *lruCache) len() int { return c.ll.Len() }

// plan is one cached prepared query. The SILP is lowered over an immutable
// snapshot of the table, so a delta applied mid-evaluation cannot mix
// post-delta values into an admitted solve.
type plan struct {
	key        string
	query      *spaql.Query
	silp       *translate.SILP
	table      *relation.Relation // registered base relation the plan was built against
	relVersion uint64
	// attrs is the query's column footprint (spaql.Query.Attrs): a delta
	// whose change set misses it (and changes no membership) retains the
	// plan across versions.
	attrs []string
}

// cachedResult is one result-cache entry's in-process value: a fully
// evaluated, deterministic response plus the relation identity/version it
// is valid for. It rides inside resultcache.Entry.Local; the entry's Wire
// payload is the serialized cacheWire twin a peer daemon can rebuild it
// from.
type cachedResult struct {
	sol        *core.Solution
	sketch     *sketch.Stats
	query      *spaql.Query
	rel        *relation.Relation // WHERE-filtered view the solution indexes
	table      *relation.Relation
	relVersion uint64
}

// cacheWire is the self-contained replication payload of one cached result:
// everything a peer needs to revalidate the entry against its own catalog
// and rebuild the cachedResult (canonical query → plan → relation view; raw
// solution → core.Solution). Float64 fields round-trip exactly through
// JSON, so a replicated hit is bit-identical to a local one.
type cacheWire struct {
	Query  string              `json:"query"`
	Method string              `json:"method"`
	Solve  *client.SolveSpec   `json:"solve,omitempty"`
	Result *client.SolveResult `json:"result"`
	Sketch *sketch.Stats       `json:"sketch,omitempty"`
}

// Stats is a point-in-time snapshot of the engine's counters, served as one
// JSON payload by GET /stats (admission, both caches, sketch sharding; the
// fields are documented in DESIGN.md).
type Stats struct {
	Queries  int64 `json:"queries"`
	Failures int64 `json:"failures"`
	Rejected int64 `json:"rejected"`
	// CacheHits/CacheMisses count the plan cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// ResultCacheHits counts queries answered without solving;
	// ResultCacheMisses counts lookups that found no valid entry (including
	// queries that subsequently failed or were rejected by admission, so it
	// can exceed the number of solves that ran).
	ResultCacheHits   int64 `json:"result_cache_hits"`
	ResultCacheMisses int64 `json:"result_cache_misses"`
	// SketchQueries counts method=sketch evaluations; ShardSolves counts
	// the per-shard sketch solves they fanned out.
	SketchQueries int64 `json:"sketch_queries"`
	ShardSolves   int64 `json:"shard_solves"`
	// Active counts queries currently solving; Queued is the admission-queue
	// depth (queries waiting for a solve slot, not those already solving),
	// bounded by MaxQueue.
	Active int64 `json:"active"`
	Queued int64 `json:"queued"`
	// Degraded counts responses served as the anytime best-so-far package
	// after an engine-applied budget (query class or request deadline)
	// bound, summed over tenants.
	Degraded int64 `json:"degraded"`
	// Tenants is the per-tenant admission ledger of the weighted-fair
	// scheduler, keyed by lane name (unknown labels fold into "default").
	Tenants        map[string]TenantStats `json:"tenants"`
	SolveTimeMS    int64                  `json:"solve_time_ms"`
	MaxInFlight    int                    `json:"max_in_flight"`
	MaxQueue       int                    `json:"max_queue"`
	PlanCacheLen   int                    `json:"plan_cache_len"`
	ResultCacheLen int                    `json:"result_cache_len"`
	// Job-manager counters (the v1 async API; the legacy /query shim also
	// runs through it). JobsRunning is a gauge of jobs currently in the
	// running state; JobsCompleted counts terminal succeeded+failed jobs
	// (cancelled ones count under JobsCancelled); JobsEvicted counts
	// finished jobs dropped from the bounded history.
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsEvicted   int64 `json:"jobs_evicted"`
	// MILP search counters: MilpSolves counts branch-and-bound solves run by
	// finished queries, MilpNodes the nodes they explored, and MilpWorkersMax
	// the largest per-solve worker bound observed (1 = sequential search).
	// Sketch shard sub-solves report only through the refine solution they
	// feed, so these undercount method=sketch traffic.
	MilpSolves     int64 `json:"milp_solves"`
	MilpNodes      int64 `json:"milp_nodes"`
	MilpWorkersMax int64 `json:"milp_workers_max"`
	// LP kernel counters: total simplex iterations, node LPs warm-started
	// from a parent basis, degenerate pivots, and the rows/columns removed
	// by MILP root presolve, summed over the same finished queries.
	LpIters       int64 `json:"lp_iters"`
	LpWarmStarts  int64 `json:"lp_warm_starts"`
	LpDegenPivots int64 `json:"lp_degen_pivots"`
	LpBoundFlips  int64 `json:"lp_bound_flips"`
	PresolveRows  int64 `json:"presolve_rows"`
	PresolveCols  int64 `json:"presolve_cols"`
	// Streaming-pipeline counters (process-wide, not per-engine): scenario
	// value blocks realized on demand, individual values produced, and the
	// tuples kept/removed by WHERE pushdown before any scenario generation.
	StreamBlocks     int64 `json:"stream_blocks"`
	StreamValues     int64 `json:"stream_values"`
	PushdownKept     int64 `json:"pushdown_kept_tuples"`
	PushdownFiltered int64 `json:"pushdown_filtered_tuples"`
	// Out-of-core column block-cache counters (process-wide): lookups served
	// from cache, block loads, evictions, and bytes currently resident.
	ColCacheHits     int64 `json:"colcache_hits"`
	ColCacheMisses   int64 `json:"colcache_misses"`
	ColCacheEvicted  int64 `json:"colcache_evictions"`
	ColCacheResident int64 `json:"colcache_resident_bytes"`
	// Delta-maintenance counters. DeltasApplied counts mutations accepted by
	// the engine's delta surface; ResultsRetained/ResultsInvalidated split
	// the cached results revalidated after a delta by whether the change
	// footprint missed them (retained, served unchanged) or hit them
	// (dropped, possibly leaving a warm-start hint); PlansRebased counts
	// cached plans carried across versions the same way; WarmResolves counts
	// queries answered by the warm re-solve fast path. The relation-level
	// counters (cells patched, partitionings retained/patched/rebuilt, stale
	// view rejections, summary tuples patched/reused) are process-wide.
	DeltasApplied      int64 `json:"deltas_applied"`
	DeltaCells         int64 `json:"delta_cells_patched"`
	ResultsRetained    int64 `json:"results_retained_after_delta"`
	ResultsInvalidated int64 `json:"results_invalidated_after_delta"`
	PlansRebased       int64 `json:"plans_rebased_after_delta"`
	WarmResolves       int64 `json:"warm_resolves"`
	PartsRetained      int64 `json:"partitions_retained"`
	PartsPatched       int64 `json:"partitions_patched"`
	PartsRebuilt       int64 `json:"partitions_rebuilt"`
	ShardsRebuilt      int64 `json:"shards_rebuilt"`
	ShardsRetained     int64 `json:"shards_retained"`
	StaleViews         int64 `json:"stale_views"`
	SummariesPatched   int64 `json:"summary_tuples_patched"`
	SummariesReused    int64 `json:"summary_tuples_reused"`
	// Result-cache replication counters, present only when the engine runs
	// a Replicating store (see internal/resultcache): entries pushed to
	// peers, accepted from peers, failed deliveries, and local pushes
	// dropped on queue overflow.
	CacheReplicated  int64 `json:"cache_replicated,omitempty"`
	CacheReceived    int64 `json:"cache_received,omitempty"`
	CachePushErrors  int64 `json:"cache_push_errors,omitempty"`
	CacheReplDropped int64 `json:"cache_repl_dropped,omitempty"`
	// Remote-solver counters, present only on daemons that registered a
	// worker pool (Options.RemoteStats): sub-solves dispatched to workers,
	// local fallbacks, observed worker failures, and workers currently in
	// failure backoff.
	RemoteDispatched  int64 `json:"remote_dispatched,omitempty"`
	RemoteFallbacks   int64 `json:"remote_fallbacks,omitempty"`
	RemoteFailures    int64 `json:"remote_failures,omitempty"`
	RemoteWorkersDown int64 `json:"remote_workers_down,omitempty"`
}

// Engine is a concurrent sPaQL query-execution engine over a catalog of
// registered relations. It is safe for concurrent use.
type Engine struct {
	cat   Catalog
	opts  Options
	sched *fairScheduler

	// m holds every operational instrument (internal/obs registry handles).
	// Stats() and GET /metrics both read from it.
	m *engineMetrics

	mu    sync.Mutex
	plans *lruCache
	// warmHints holds warm-start state salvaged from result-cache entries a
	// delta invalidated, keyed by result key; bounded (see maxWarmHints).
	warmHints map[string]*warmHint

	// results is nil when result caching is disabled. wantWire reports
	// whether the store replicates (implements Counters), in which case
	// every locally solved entry also gets its serialized wire payload.
	results  resultcache.Store
	wantWire bool

	// Async job manager state (jobs.go). jobList holds every tracked job in
	// submission order; jobFinished counts the terminal ones, bounded by
	// Options.JobHistory via eviction.
	jobsMu      sync.Mutex
	jobsByID    map[string]*Job
	jobList     []*Job
	jobFinished int
	jobSeq      atomic.Int64
}

// New creates an engine over the catalog.
func New(cat Catalog, o *Options) *Engine {
	opts := o.withDefaults()
	e := &Engine{
		cat:      cat,
		opts:     opts,
		sched:    newFairScheduler(opts.MaxInFlight, opts.MaxQueue, opts.Tenants),
		plans:    newLRU(opts.PlanCacheSize),
		jobsByID: map[string]*Job{},
	}
	switch {
	case opts.ResultCache != nil:
		e.results = opts.ResultCache
	case opts.ResultCacheSize > 0:
		e.results = resultcache.NewMemory(opts.ResultCacheSize)
	}
	if e.results != nil {
		_, e.wantWire = e.results.(interface{ Counters() resultcache.Counters })
	}
	e.m = newEngineMetrics(e)
	return e
}

// prepare returns a cached plan for the parsed query, or validates and
// lowers it and caches the result. The cache key is the canonical rendering
// of the *parsed* query (spaql guarantees Parse(q.String()) round-trips), so
// reformatted, comment-bearing, or otherwise trivially different texts share
// a plan exactly when they denote the same statement — a purely textual key
// would conflate e.g. queries that differ only inside a "--" line comment.
// Parsing is cheap; the cache exists to skip the translation (WHERE
// filtering, mask evaluation, bound derivation). A cached plan is dead as
// soon as the table name resolves to a different relation or the relation's
// version counter moved (e.g. re-registered data or recomputed means).
func (e *Engine) prepare(q *spaql.Query, key string) (*plan, bool, error) {
	if p := e.planGet(key); p != nil {
		if rel, ok := e.cat.Table(p.query.Table); ok && rel == p.table {
			if rel.Version() == p.relVersion {
				e.m.planHits.Inc()
				return p, true, nil
			}
			// The relation moved past the plan. Retain it anyway when the
			// merged delta footprint misses the query's columns and changed
			// no membership: re-translating would reproduce the plan
			// bound-for-bound (the pinned snapshot still reads the same
			// values for every column the query touches).
			if cs, have := rel.Changes(p.relVersion); have && !cs.MembershipChanged() && !cs.Touches(p.attrs) {
				np := *p
				np.relVersion = cs.To
				e.planPut(&np)
				e.m.plansRebased.Inc()
				e.m.planHits.Inc()
				return &np, true, nil
			}
		}
		e.planDrop(key)
	}
	e.m.planMisses.Inc()

	rel, ok := e.cat.Table(q.Table)
	if !ok {
		return nil, false, fmt.Errorf("engine: unknown table %q", q.Table)
	}
	// Pin an immutable snapshot: concurrent deltas replace the base
	// relation's columns copy-on-write, so the admitted evaluation keeps
	// reading the pre-delta state (substream identity included) end to end.
	snap := rel.Snapshot()
	silp, err := translate.Build(q, snap, nil)
	if err != nil {
		return nil, false, err
	}
	p := &plan{key: key, query: q, silp: silp, table: rel, relVersion: snap.Version(), attrs: q.Attrs()}
	e.planPut(p)
	return p, false, nil
}

func (e *Engine) planGet(key string) *plan {
	if e.opts.PlanCacheSize < 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.plans.get(key); ok {
		return v.(*plan)
	}
	return nil
}

func (e *Engine) planPut(p *plan) {
	if e.opts.PlanCacheSize < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.plans.put(p.key, p)
}

func (e *Engine) planDrop(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.plans.drop(key)
}

// prepareSolve builds the plan for a sub-problem submission
// (client.SolveSpec): the query lowered over the spec's subset view of the
// base relation, with the spec's variable-bound overrides applied after
// translation. The subset selection preserves each tuple's substream
// identity, so the rebuilt problem is row-for-row the problem the
// dispatching coordinator holds, and solving it is bit-identical to the
// coordinator solving locally. Sub-problem plans are never plan-cached —
// each shard's subset is unique — but their results are result-cached (the
// spec joins the key).
func (e *Engine) prepareSolve(q *spaql.Query, spec *client.SolveSpec) (*plan, error) {
	rel, ok := e.cat.Table(q.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", q.Table)
	}
	snap := rel.Snapshot() // pin: deltas must not shift an admitted sub-solve
	version := snap.Version()
	n := snap.N()
	if len(spec.Subset) == 0 {
		return nil, errors.New("engine: solve spec has an empty subset")
	}
	member := make([]bool, n)
	prev := -1
	for _, t := range spec.Subset {
		if t <= prev || t >= n {
			return nil, fmt.Errorf("engine: solve subset must be strictly ascending base-relation indices below %d", n)
		}
		prev = t
		member[t] = true
	}
	sub := snap.Select(func(t int) bool { return member[t] })
	silp, err := translate.Build(q, sub, nil)
	if err != nil {
		return nil, err
	}
	if spec.VarHi != nil {
		if len(spec.VarHi) != silp.N {
			return nil, fmt.Errorf("engine: solve spec var_hi has %d bounds, problem has %d variables", len(spec.VarHi), silp.N)
		}
		silp.VarHi = append([]float64(nil), spec.VarHi...)
	}
	if spec.VarLo != nil {
		if len(spec.VarLo) != silp.N {
			return nil, fmt.Errorf("engine: solve spec var_lo has %d bounds, problem has %d variables", len(spec.VarLo), silp.N)
		}
		silp.VarLo = append([]float64(nil), spec.VarLo...)
	}
	return &plan{query: q, silp: silp, table: rel, relVersion: version}, nil
}

// resultKey renders the full determinism domain of a request: the canonical
// statement, the method, every result-relevant evaluation option (seeds
// included, parallelism excluded — it is bit-identical), the effective
// timeout (when a budget binds, the result depends on it), the sketch
// options for the sketch method, and the solve spec for sub-problem
// requests. Every part is node-independent, which is what makes the key
// safe to share across a replicated fleet.
func resultKey(qstr, method string, opts *core.Options, timeout time.Duration, sopts *sketch.Options, spec *client.SolveSpec) string {
	key := qstr + "\x1f" + method + "\x1f" + opts.Key() + "\x1f" + fmt.Sprint(int64(timeout))
	if method == "sketch" {
		key += "\x1f" + sopts.Key()
	}
	if spec != nil {
		key += "\x1f" + spec.Key()
	}
	return key
}

// resultGet returns a still-valid cached result, dropping entries whose
// relation changed. The conditional Drop (pointer-matched against the entry
// we validated) guarantees a stale read can never evict a fresh entry
// stored by a concurrent solve. Entries that arrived from a peer daemon
// carry only the wire payload; the first hit materializes them against the
// local catalog and promotes the in-process value. A nil return is counted
// as a miss.
func (e *Engine) resultGet(key string) *cachedResult {
	if e.results == nil {
		return nil
	}
	ent, ok := e.results.Get(key)
	if !ok {
		e.m.resultMisses.Inc()
		return nil
	}
	if rel, live := e.cat.Table(ent.Table); live {
		if cr, isLocal := ent.Local.(*cachedResult); isLocal {
			// The identity check (not just name+version) guards against a
			// different relation re-registered under the same name whose
			// fresh version counter happens to coincide.
			if cr.table == rel {
				if rel.Version() == ent.Version {
					e.m.resultHits.Inc()
					return cr
				}
				// The relation moved past the entry. Retain it when the
				// merged delta footprint misses the query's columns and
				// changed no membership: the solution provably cannot
				// differ, so the entry is rebased to the new version. The
				// rebased entry is marked Remote so it never re-replicates
				// (peers revalidate against their own catalogs). Tuples in
				// the rendered package read from the admitted snapshot,
				// whose query-relevant columns are identical by
				// construction.
				if cs, have := rel.Changes(ent.Version); have && !cs.MembershipChanged() && !cs.Touches(cr.query.Attrs()) {
					e.results.Put(key, &resultcache.Entry{
						Table: ent.Table, Version: cs.To,
						Local: cr, Wire: ent.Wire, Remote: true,
					})
					e.m.resultsRetained.Inc()
					e.m.resultHits.Inc()
					return cr
				}
				// Invalidated for real — but the dying entry may carry the
				// previous evaluation's warm-start state. Stash it so the
				// re-solve of the same request can start from the previous
				// package, summaries, and root basis instead of cold.
				e.stashWarm(key, cr)
				e.m.resultsInvalidated.Inc()
			}
		} else if rel.Version() == ent.Version {
			if cr := e.materialize(ent); cr != nil {
				e.results.Put(key, &resultcache.Entry{
					Table: ent.Table, Version: ent.Version,
					Local: cr, Wire: ent.Wire,
					Remote: true, // a promoted peer entry still never re-replicates
				})
				e.m.resultHits.Inc()
				return cr
			}
		}
	}
	e.results.Drop(key, ent)
	e.m.resultMisses.Inc()
	return nil
}

// materialize rebuilds a peer-replicated entry's in-process value against
// the local catalog: parse the canonical query, prepare its plan (through
// the plan cache for whole-table entries; per-spec for sub-problems), check
// the version still matches, and decode the raw solution onto the plan's
// relation view. Any mismatch — table gone, version moved, malformed
// payload, wrong package length — returns nil and the caller drops the
// entry; replication is best-effort by design.
func (e *Engine) materialize(ent *resultcache.Entry) *cachedResult {
	if len(ent.Wire) == 0 {
		return nil
	}
	var cw cacheWire
	if err := json.Unmarshal(ent.Wire, &cw); err != nil {
		return nil
	}
	q, err := spaql.Parse(cw.Query)
	if err != nil {
		return nil
	}
	var p *plan
	if cw.Solve != nil {
		p, err = e.prepareSolve(q, cw.Solve)
	} else {
		p, _, err = e.prepare(q, q.String())
	}
	if err != nil || p.relVersion != ent.Version {
		return nil
	}
	sol, err := remote.FromWireSolution(cw.Result, p.silp.Rel.N())
	if err != nil {
		return nil
	}
	return &cachedResult{
		sol: sol, sketch: cw.Sketch, query: p.query, rel: p.silp.Rel,
		table: p.table, relVersion: p.relVersion,
	}
}

// resultPut stores one locally solved result. When the store replicates,
// the entry also carries its self-contained wire payload for the peer push.
func (e *Engine) resultPut(key, method string, cr *cachedResult, spec *client.SolveSpec) {
	if e.results == nil {
		return
	}
	ent := &resultcache.Entry{Table: cr.query.Table, Version: cr.relVersion, Local: cr}
	// A warm re-solve was seeded by node-local state (Options.Warm is
	// excluded from the result key), so its accepted (M, Z) is not
	// guaranteed to match what a peer solving the same key cold would reach:
	// the entry stays node-local (Remote entries never replicate).
	if cr.sol != nil && cr.sol.WarmResolve {
		ent.Remote = true
	} else if e.wantWire {
		if wire, err := json.Marshal(cacheWire{
			Query:  cr.query.String(),
			Method: method,
			Solve:  spec,
			Result: remote.ToWireSolution(cr.sol),
			Sketch: cr.sketch,
		}); err == nil {
			ent.Wire = wire
		}
	}
	e.results.Put(key, ent)
}

// Query evaluates one request under admission control: it parses the query,
// serves identical requests from the result cache (no solve slot needed),
// and otherwise waits for a solve slot (rejecting immediately when MaxQueue
// other queries are already waiting), bounds the evaluation by the request
// timeout, and runs the selected method with the engine's parallelism.
//
// Every evaluation is traced. When the context already carries a span (the
// async job manager installs the job's root span), the evaluation's phases
// nest under it; otherwise the engine mints a trace of its own — honoring
// Request.TraceParent's trace ID — and returns the finished tree in
// Result.Trace. Tracing is purely observational: spans never join cache
// keys and never feed solver state, so traced and untraced runs are
// bit-identical.
func (e *Engine) Query(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if obs.SpanFromContext(ctx) != nil {
		return e.query(ctx, req)
	}
	id, parent := obs.ParseTraceParent(req.TraceParent)
	tr := e.newTrace(id, "query")
	root := tr.Root()
	if parent != "" {
		root.SetAttr("parent", parent)
	}
	start := time.Now()
	res, err := e.query(obs.ContextWithSpan(ctx, root), req)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	e.maybeLogSlow(tr, req.Query, req.Method, time.Since(start))
	if res != nil {
		res.Trace = tr.Data()
	}
	return res, err
}

// maybeLogSlow emits the slow-query log event when the evaluation cleared
// the configured threshold: one structured event carrying the trace ID and
// the rendered span tree.
func (e *Engine) maybeLogSlow(tr *obs.Trace, query, method string, d time.Duration) {
	if tr == nil || e.opts.Logger == nil || e.opts.SlowQuery <= 0 || d < e.opts.SlowQuery {
		return
	}
	e.opts.Logger.Event("slow_query", map[string]any{
		"trace_id":    tr.ID(),
		"method":      method,
		"query":       query,
		"duration_ms": d.Milliseconds(),
		"trace":       obs.Render(tr.Data()),
	})
}

// query is Query's body; ctx carries the evaluation's parent span.
func (e *Engine) query(ctx context.Context, req Request) (*Result, error) {
	e.m.queries.Inc()
	sp := obs.SpanFromContext(ctx)

	// An already-cancelled context never evaluates — not even from the
	// result cache (a job cancelled while queued must not succeed).
	if err := ctx.Err(); err != nil {
		e.m.failures.Inc()
		return nil, err
	}

	ps := sp.StartChild("parse")
	q, err := spaql.Parse(req.Query)
	if err != nil {
		ps.SetAttr("error", err.Error())
		ps.End()
		e.m.failures.Inc()
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	qstr := q.String()
	ps.End()

	// method is canonicalized through the solver registry to the cache-key
	// name of the computation: "" and "summarysearch" are the same
	// computation and must share one result entry, and so are "remote" and
	// its (bit-identical) inner method — including across fleet nodes with
	// different solver configurations.
	method := strings.ToLower(req.Method)
	var solver core.Solver
	if method != "sketch" {
		if solver, err = core.SolverByName(method); err != nil {
			e.m.failures.Inc()
			return nil, fmt.Errorf("%w %q", ErrUnknownMethod, req.Method)
		}
		method = core.SolverCacheKey(solver)
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = e.opts.DefaultTimeout
	}

	var opts core.Options
	if req.Options != nil {
		opts = *req.Options
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = e.opts.Parallelism
	}
	if req.Progress != nil {
		opts.Progress = req.Progress
	}
	var sopts *sketch.Options
	if method == "sketch" {
		s := sketch.Options{}
		if req.Sketch != nil {
			s = *req.Sketch
		}
		if s.Workers == 0 {
			s.Workers = opts.Parallelism
		}
		if s.Solver == nil {
			s.Solver = e.opts.SketchSolver
		}
		sopts = &s
	}

	// Identical deterministic requests are answered without solving (and
	// without consuming a solve slot or queue capacity).
	rkey := resultKey(qstr, method, &opts, timeout, sopts, req.Solve)
	sp.SetAttr("method", method)
	if cr := e.resultGet(rkey); cr != nil {
		sp.SetAttr("result_cache", "hit")
		return &Result{Solution: cr.sol, Query: cr.query, Rel: cr.rel, ResultCacheHit: true, Sketch: cr.sketch}, nil
	}

	// Admission control: the deficit-round-robin fair scheduler bounds the
	// total commitment (solving + waiting) by MaxInFlight + MaxQueue
	// globally and by each tenant's own quota. The tenant label folds to
	// its lane name here so metrics and stats stay bounded-cardinality.
	tenant := e.sched.Canonical(req.Tenant)
	e.m.queued.Add(1)
	defer e.m.queued.Add(-1)

	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	enqueued := time.Now()
	ws := sp.StartChild("wait")
	if err := e.sched.Acquire(ctx, tenant); err != nil {
		ws.SetAttr("error", err.Error())
		ws.End()
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrTenantQuota) {
			e.m.rejected.Inc()
			e.m.tenantRejected.With(tenant).Inc()
		} else {
			// The request entered the queue and its context expired waiting.
			e.m.tenantQueued.With(tenant).Inc()
			e.m.failures.Inc()
		}
		return nil, err
	}
	ws.End()
	e.m.tenantQueued.With(tenant).Inc()
	defer e.sched.Release(tenant)
	wait := time.Since(enqueued)
	e.m.admissionWait.Observe(wait.Seconds())
	e.m.tenantAdmitted.With(tenant).Inc()
	if req.onAdmit != nil {
		req.onAdmit()
	}

	e.m.active.Add(1)
	defer e.m.active.Add(-1)

	// Deadline-aware degradation: clamp the evaluation's budgets so a
	// too-slow solve returns its anytime best-so-far package instead of
	// dying on the context deadline. The clamps are applied strictly after
	// rkey was rendered from the pristine options, and a clamped (budget-
	// cut) solution is never cached, so deadlines and classes stay out of
	// every cache key and determinism is preserved. Only local anytime
	// solvers are clamped: remote dispatch must keep its budgets verbatim
	// (a jittery wall-clock budget would mint unique worker cache keys),
	// and worker-side sub-problems already run under dispatched budgets.
	engineClamped := false
	if e.clampable(method, solver, sopts, req.Solve) {
		if cb, ok := e.opts.Classes[req.Class]; ok && req.Class != "" {
			if cb.TimeLimit > 0 && (opts.TimeLimit <= 0 || cb.TimeLimit < opts.TimeLimit) {
				opts.TimeLimit = cb.TimeLimit
				engineClamped = true
			}
			if cb.SolverNodes > 0 && (opts.SolverNodes <= 0 || cb.SolverNodes < opts.SolverNodes) {
				opts.SolverNodes = cb.SolverNodes
				engineClamped = true
			}
		}
		if dl, ok := ctx.Deadline(); ok {
			// Leave a margin so the solver's wall-clock budget binds (and
			// returns best-so-far) before the hard context deadline kills
			// the evaluation mid-round.
			rem := time.Until(dl)
			margin := rem / 10
			if margin < 20*time.Millisecond {
				margin = 20 * time.Millisecond
			} else if margin > 2*time.Second {
				margin = 2 * time.Second
			}
			if budget := rem - margin; budget > 0 && (opts.TimeLimit <= 0 || budget < opts.TimeLimit) {
				opts.TimeLimit = budget
				engineClamped = true
			}
		}
	}

	pls := sp.StartChild("plan")
	var p *plan
	var hit bool
	if req.Solve != nil {
		p, err = e.prepareSolve(q, req.Solve)
	} else {
		p, hit, err = e.prepare(q, qstr)
	}
	if err != nil {
		pls.SetAttr("error", err.Error())
		pls.End()
		e.m.failures.Inc()
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	if hit {
		pls.SetAttr("plan_cache", "hit")
	}
	pls.End()

	// Warm re-solve wiring (whole-table core methods only): collect warm
	// state alongside cacheable results, and consume a hint stashed when a
	// delta invalidated this request's previous entry. Both are advisory —
	// neither joins the result key, and a warm solve that fails to validate
	// falls back to the cold path inside core.
	if req.Solve == nil && method != "sketch" {
		opts.CollectWarm = e.results != nil
		if hint := e.takeWarm(rkey); hint != nil {
			if w := e.warmStart(hint, p); w != nil {
				opts.Warm = w
				sp.SetAttr("warm", "hint")
			}
		}
	}

	solveStart := time.Now()
	sctx, ss := obs.StartSpan(ctx, method)
	var sol *core.Solution
	var sstats *sketch.Stats
	if method == "sketch" {
		sol, sstats, err = sketch.SolveSILP(sctx, p.silp, &opts, sopts)
		if sstats != nil {
			e.m.sketchQueries.Inc()
			e.m.shardSolves.Add(int64(sstats.ShardSolves))
			ss.SetInt("shard_solves", int64(sstats.ShardSolves))
		}
	} else {
		sol, err = solver.Solve(sctx, p.silp, &opts)
	}
	if err != nil {
		ss.SetAttr("error", err.Error())
	}
	ss.End()
	e.m.solveLatency.Observe(time.Since(solveStart).Seconds())
	if err != nil {
		e.m.failures.Inc()
		if errors.Is(err, core.ErrInfeasible) {
			// The query's deterministic constraints are unsatisfiable:
			// that is a property of the request, not a server fault.
			return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
		}
		return nil, err
	}

	if sol.WarmResolve {
		e.m.warmResolves.Inc()
	}
	e.m.milpSolves.Add(int64(sol.MILPSolves))
	e.m.milpNodes.Add(int64(sol.MILPNodes))
	e.m.lpIters.Add(int64(sol.LPIters))
	e.m.lpWarmStarts.Add(int64(sol.WarmStarts))
	e.m.lpDegenPivots.Add(int64(sol.DegenPivots))
	e.m.lpBoundFlips.Add(int64(sol.BoundFlips))
	e.m.presolveRows.Add(int64(sol.PresolveRows))
	e.m.presolveCols.Add(int64(sol.PresolveCols))
	e.m.milpWorkersMax.SetMax(int64(sol.MILPWorkers))

	// The solution's X indexes p.silp.Rel for every method: the sketch
	// pipeline maps its refine solution back to the plan's view. A solution
	// cut short by a wall-clock/node budget is best-effort, not
	// deterministic — serving it to future identical requests would pin a
	// load-degraded answer — so it is not cached. (For sketch, the check
	// sees the refine solve's iterations; a budget cut inside a shard solve
	// is not detected.)
	degraded := false
	if sol.HitLimit(&opts) {
		if engineClamped {
			// An engine-applied budget bound: degrade to the anytime
			// best-so-far package when one exists, fail with the dedicated
			// 429 when nothing feasible was found in time.
			if !sol.Feasible {
				sp.SetAttr("degraded", "no_feasible")
				e.m.failures.Inc()
				return nil, ErrDegraded
			}
			degraded = true
			sp.SetAttr("degraded", "true")
			e.m.tenantDegraded.With(tenant).Inc()
		}
	} else {
		e.resultPut(rkey, method, &cachedResult{
			sol: sol, sketch: sstats, query: p.query, rel: p.silp.Rel,
			table: p.table, relVersion: p.relVersion,
		}, req.Solve)
	}
	return &Result{Solution: sol, Query: p.query, Rel: p.silp.Rel, CacheHit: hit, Sketch: sstats, Wait: wait, Degraded: degraded}, nil
}

// clampable reports whether the engine may tighten the request's evaluation
// budgets (class budgets, deadline-derived wall-clock clamps). Only local
// anytime solvers qualify: remote dispatch forwards budgets verbatim into
// worker cache keys, so a per-request jittery clamp would destroy cache
// affinity across the fleet, and sub-problem (SolveSpec) requests already
// run under exactly the budgets their coordinator dispatched.
func (e *Engine) clampable(method string, solver core.Solver, sopts *sketch.Options, spec *client.SolveSpec) bool {
	if spec != nil {
		return false
	}
	if method == "sketch" {
		return sopts.Solver == nil || sopts.Solver == core.SummarySearchSolver || sopts.Solver == core.NaiveSolver
	}
	return solver == core.SummarySearchSolver || solver == core.NaiveSolver
}

// Stats returns a snapshot of the engine's counters. It reads the same
// registry instruments GET /metrics renders, so the two surfaces agree by
// construction.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	planLen := e.plans.len()
	e.mu.Unlock()
	resultLen := 0
	if e.results != nil {
		resultLen = e.results.Len()
	}
	// The queued gauge tracks the engine's total commitment (waiting +
	// solving) for admission; report only the waiting backlog.
	waiting := e.m.queued.Value() - e.m.active.Value()
	if waiting < 0 {
		waiting = 0
	}
	st := Stats{
		Queries:           e.m.queries.Value(),
		Failures:          e.m.failures.Value(),
		Rejected:          e.m.rejected.Value(),
		CacheHits:         e.m.planHits.Value(),
		CacheMisses:       e.m.planMisses.Value(),
		ResultCacheHits:   e.m.resultHits.Value(),
		ResultCacheMisses: e.m.resultMisses.Value(),
		SketchQueries:     e.m.sketchQueries.Value(),
		ShardSolves:       e.m.shardSolves.Value(),
		MilpSolves:        e.m.milpSolves.Value(),
		MilpNodes:         e.m.milpNodes.Value(),
		MilpWorkersMax:    e.m.milpWorkersMax.Value(),
		LpIters:           e.m.lpIters.Value(),
		LpWarmStarts:      e.m.lpWarmStarts.Value(),
		LpDegenPivots:     e.m.lpDegenPivots.Value(),
		LpBoundFlips:      e.m.lpBoundFlips.Value(),
		PresolveRows:      e.m.presolveRows.Value(),
		PresolveCols:      e.m.presolveCols.Value(),
		Active:            e.m.active.Value(),
		Queued:            waiting,
		SolveTimeMS:       int64(e.m.solveLatency.Sum() * 1000),
		MaxInFlight:       e.opts.MaxInFlight,
		MaxQueue:          e.opts.MaxQueue,
		PlanCacheLen:      planLen,
		ResultCacheLen:    resultLen,
		JobsSubmitted:     e.m.jobsSubmitted.Value(),
		JobsRunning:       e.m.jobsRunning.Value(),
		JobsCompleted:     e.m.jobsCompleted.Value(),
		JobsCancelled:     e.m.jobsCancelled.Value(),
		JobsEvicted:       e.m.jobsEvicted.Value(),
	}
	st.Tenants = e.sched.TenantsSnapshot()
	for name, ts := range st.Tenants {
		ts.Degraded = e.m.tenantDegraded.Value(name)
		st.Tenants[name] = ts
		st.Degraded += ts.Degraded
	}
	sc := stream.Counters()
	st.StreamBlocks = sc.BlocksGenerated
	st.StreamValues = sc.ValuesGenerated
	st.PushdownKept = sc.PushdownKept
	st.PushdownFiltered = sc.PushdownFiltered
	cc := relation.CacheStats()
	st.ColCacheHits = cc.Hits
	st.ColCacheMisses = cc.Misses
	st.ColCacheEvicted = cc.Evictions
	st.ColCacheResident = cc.ResidentBytes
	st.DeltasApplied = e.m.deltasApplied.Value()
	st.ResultsRetained = e.m.resultsRetained.Value()
	st.ResultsInvalidated = e.m.resultsInvalidated.Value()
	st.PlansRebased = e.m.plansRebased.Value()
	st.WarmResolves = e.m.warmResolves.Value()
	ds := relation.DeltaStats()
	st.DeltaCells = ds.CellsPatched
	st.PartsRetained = ds.PartitionsRetained
	st.PartsPatched = ds.PartitionsPatched
	st.PartsRebuilt = ds.PartitionsRebuilt
	st.ShardsRebuilt = ds.ShardsRebuilt
	st.ShardsRetained = ds.ShardsRetained
	st.StaleViews = ds.StaleViews
	st.SummariesPatched = sc.SummaryTuplesPatched
	st.SummariesReused = sc.SummaryTuplesReused
	if c, ok := e.results.(interface{ Counters() resultcache.Counters }); ok {
		rc := c.Counters()
		st.CacheReplicated = rc.Replicated
		st.CacheReceived = rc.Received
		st.CachePushErrors = rc.PushErrors
		st.CacheReplDropped = rc.Dropped
	}
	if e.opts.RemoteStats != nil {
		rs := e.opts.RemoteStats()
		st.RemoteDispatched = rs.Dispatched
		st.RemoteFallbacks = rs.Fallbacks
		st.RemoteFailures = rs.Failures
		st.RemoteWorkersDown = int64(rs.WorkersDown)
	}
	return st
}
