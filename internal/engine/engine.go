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
//   - a result cache (an internal/resultcache LRU): evaluation is fully
//     deterministic for fixed (query, method, options, seeds) — parallelism
//     is bit-identical to sequential — so identical requests are served
//     without solving, or even waiting for a solve slot;
//   - per-query timeouts and cancellation via context.Context, carried all
//     the way into scenario generation, validation, and the MILP search.
//
// A request names one of three methods: "summarysearch" (the default) and
// "naive" run core's SummarySearch and Naive on the cached plan's SILP, and
// "sketch" runs the partition-aware SketchRefine pipeline
// (internal/sketch) against the cached plan: the relation's cached
// Partitioning shards the medoid solve, shards solve concurrently, and one
// global refine follows.
//
// Query evaluation's scenario generation, summarization and validation run
// with core.Options.Parallelism workers, so one query exploits all cores
// when the server is idle while concurrent queries share them under load;
// its MILP solves run on the goroutine evaluating it. Parallel execution is
// bit-identical to sequential (see internal/core and internal/sketch), so
// the caches and the worker pools never change answers.
package engine

import (
	"context"
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
	"spq/internal/resultcache"
	"spq/internal/sketch"
	"spq/internal/spaql"
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
	// It sizes scenario generation, summarization and validation; MILP
	// solves run on one goroutine.
	Parallelism int
	// MaxJobs bounds the async jobs that may be active (queued or running)
	// at once; Submit beyond it fails with ErrOverloaded (default
	// MaxInFlight+MaxQueue, the number of requests solve-slot admission
	// can hold at once).
	MaxJobs int
	// JobHistory is the number of finished jobs retained for polling after
	// completion (default 64; negative retains none).
	JobHistory int
	// ReadOnly disables the mutation surface: POST /v1/tables/{name}/deltas
	// answers 405 and Engine.ApplyDelta fails.
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
	// Progress, when non-nil, receives per-iteration reports while the
	// solve runs (installed into core.Options; see core.Progress). It never
	// fires for result-cache hits, where no solve runs.
	Progress func(core.Progress)
	// TraceParent, when non-empty, is the X-Spq-Trace value
	// ("<trace-id>/<span-name>") propagated from an upstream caller: the
	// evaluation's trace adopts the upstream trace ID so the caller's spans
	// and the engine's correlate. Like Progress it is purely observational
	// and never joins cache keys.
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
	// Degraded reports that an engine-applied budget (query class or the
	// request deadline) cut the evaluation short: the Solution is the
	// anytime best-so-far feasible package, not the converged answer. Its
	// achieved gap is Solution.EpsUpper. Degraded results are never cached.
	Degraded bool
	// Sketch reports the sketch pipeline's stats for Method "sketch".
	Sketch *sketch.Stats
	// Wait is the time spent in the admission queue before solving.
	Wait time.Duration
	// trace is the evaluation's span tree, kept only when the engine minted
	// the trace itself (a direct Query call with no ambient span); Trace
	// renders it.
	trace *obs.Trace
	// cached is the result-cache entry this result was served from or
	// stored as (nil for budget-cut results): the wire rendering reads the
	// entry's package tuples, so a cached package is rendered once.
	cached *cachedResult
}

// Trace renders the evaluation's finished span tree. It is nil when the
// evaluation ran under an ambient span (a job's evaluation, whose tree is
// read through GET /v1/queries/{id}/trace), and nothing is rendered unless
// it is called.
func (r *Result) Trace() *client.TraceSpan { return r.trace.Data() }

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
// is valid for. It rides inside resultcache.Entry.Local.
type cachedResult struct {
	sol        *core.Solution
	sketch     *sketch.Stats
	query      *spaql.Query
	rel        *relation.Relation // WHERE-filtered view the solution indexes
	table      *relation.Relation
	relVersion uint64
	attrs      []string // the plan's column footprint

	pkgOnce sync.Once
	pkg     []client.PackageTuple
}

// packageTuples renders the entry's package as base-relation tuples on the
// first wire rendering; every later one shares them, read-only. A retained
// entry keeps them across a delta: its view's membership did not change.
func (cr *cachedResult) packageTuples() []client.PackageTuple {
	cr.pkgOnce.Do(func() { cr.pkg = packageOf(cr.sol.X, cr.rel) })
	return cr.pkg
}

// Stats is a point-in-time snapshot of the engine's counters, served as one
// JSON payload by GET /stats. Every scalar field but Degraded, SolveTimeMS
// and the two limits is filled by its row of statTable (metrics.go); the
// fields are documented under their JSON keys in OPERATIONS.md.
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
	// Job-manager counters (the v1 async API). JobsRunning is a gauge of
	// jobs currently in the running state; JobsCompleted counts terminal
	// succeeded+failed jobs (cancelled ones count under JobsCancelled);
	// JobsEvicted counts finished jobs dropped from the bounded history.
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsEvicted   int64 `json:"jobs_evicted"`
	// MILP search counters: MilpSolves counts branch-and-bound solves run by
	// finished queries and MilpNodes the nodes they explored. Sketch shard
	// sub-solves report only through the refine solution they feed, so these
	// undercount method=sketch traffic.
	MilpSolves int64 `json:"milp_solves"`
	MilpNodes  int64 `json:"milp_nodes"`
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
	// Delta-maintenance counters. DeltasApplied counts mutations accepted by
	// the engine's delta surface; ResultsRetained/ResultsInvalidated split
	// the cached results revalidated after a delta by whether the change
	// footprint missed them (retained, served unchanged) or hit them
	// (dropped, possibly leaving a warm-start hint); PlansRebased counts
	// cached plans carried across versions the same way; WarmResolves counts
	// queries answered by the warm re-solve fast path. The relation-level
	// counters (cells patched, partitionings retained/patched/rebuilt,
	// summary tuples patched/reused) are process-wide.
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
	SummariesPatched   int64 `json:"summary_tuples_patched"`
	SummariesReused    int64 `json:"summary_tuples_reused"`
}

// Engine is a concurrent sPaQL query-execution engine over a catalog of
// registered relations. It is safe for concurrent use.
type Engine struct {
	cat   Catalog
	opts  Options
	sched *fairScheduler

	// m holds every operational instrument (see statTable in metrics.go).
	// Stats() and GET /metrics both read from it.
	m *engineMetrics

	// plans is nil when plan caching is disabled.
	plans *resultcache.Memory

	// results is nil when result caching is disabled.
	results *resultcache.Memory

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
		jobsByID: map[string]*Job{},
	}
	if opts.PlanCacheSize > 0 {
		e.plans = resultcache.NewMemory(opts.PlanCacheSize)
	}
	if opts.ResultCacheSize > 0 {
		e.results = resultcache.NewMemory(opts.ResultCacheSize)
	}
	e.m = newEngineMetrics()
	return e
}

// planFor returns a cached plan for the parsed query, or validates and
// lowers it and caches the result. The cache key is the canonical rendering
// of the *parsed* query (spaql guarantees Parse(q.String()) round-trips), so
// reformatted, comment-bearing, or otherwise trivially different texts share
// a plan exactly when they denote the same statement — a purely textual key
// would conflate e.g. queries that differ only inside a "--" line comment.
// Parsing is cheap; the cache exists to skip the translation (WHERE
// filtering, mask evaluation, bound derivation). A cached plan lives while
// current says so, like a cached result.
func (e *Engine) planFor(q *spaql.Query, key string) (*plan, bool, error) {
	if ent, ok := e.plans.Get(key); ok {
		p := ent.Local.(*plan)
		// Re-translating a plan the relation moved past, by a delta that
		// missed its columns, would reproduce it bound for bound: the pinned
		// snapshot still reads the same values for every column the query
		// touches.
		if version, ok, moved := e.current(ent, p.table, p.attrs); ok {
			if moved {
				np := *p
				np.relVersion = version
				p = &np
				e.planPut(p)
				e.m.inc(statPlansRebased)
			}
			e.m.inc(statPlanHits)
			return p, true, nil
		}
		e.plans.Drop(key, ent)
	}
	e.m.inc(statPlanMisses)

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

func (e *Engine) planPut(p *plan) {
	e.plans.Put(p.key, &resultcache.Entry{Table: p.query.Table, Version: p.relVersion, Local: p})
}

// current decides whether a cache entry (a plan or a result) computed
// against table at ent.Version still holds. It does while the catalog
// resolves ent.Table to that very relation (identity, not just name and
// version: a relation re-registered under the same name can reuse a version
// number) and either the version is unchanged, or the merged delta since
// then misses the entry's column footprint attrs and changed no membership.
// version is the relation's version the entry is current at; moved reports
// that the same relation has moved past the entry, whether or not the
// entry survived the move.
func (e *Engine) current(ent *resultcache.Entry, table *relation.Relation, attrs []string) (version uint64, ok, moved bool) {
	rel, live := e.cat.Table(ent.Table)
	if !live || rel != table {
		return 0, false, false
	}
	if v := rel.Version(); v == ent.Version {
		return v, true, false
	}
	if cs, have := rel.Changes(ent.Version); have && !cs.MembershipChanged() && !cs.Touches(attrs) {
		return cs.To, true, true
	}
	return 0, false, true
}

// resultKey renders the full determinism domain of a request: the canonical
// statement, the method, every result-relevant evaluation option (seeds
// included, parallelism excluded — it is bit-identical), the effective
// timeout (when a budget binds, the result depends on it), and the sketch
// options for the sketch method.
func resultKey(qstr, method string, opts *core.Options, timeout time.Duration, sopts *sketch.Options) string {
	key := qstr + "\x1f" + method + "\x1f" + opts.Key() + "\x1f" + fmt.Sprint(int64(timeout))
	if method == "sketch" {
		key += "\x1f" + sopts.Key()
	}
	return key
}

// resultGet returns a still-valid cached result, dropping entries whose
// relation changed. The conditional Drop (pointer-matched against the entry
// we validated) guarantees a stale read can never evict a fresh entry
// stored by a concurrent solve. A nil hit is counted as a miss; stale is the
// entry a delta invalidated, if that is why it missed.
func (e *Engine) resultGet(key string) (hit, stale *cachedResult) {
	if e.results == nil {
		return nil, nil
	}
	ent, ok := e.results.Get(key)
	if !ok {
		e.m.inc(statResultMisses)
		return nil, nil
	}
	cr := ent.Local.(*cachedResult)
	// A retained entry's solution provably cannot differ, so it is rebased
	// to the new version. Tuples in the rendered package read from the
	// admitted snapshot, whose query-relevant columns are identical by
	// construction.
	version, ok, moved := e.current(ent, cr.table, cr.attrs)
	switch {
	case ok:
		if moved {
			e.results.Put(key, &resultcache.Entry{Table: ent.Table, Version: version, Local: cr})
			e.m.inc(statResultsRetained)
		}
		e.m.inc(statResultHits)
		return cr, nil
	case moved:
		// Invalidated for real — but the dying entry may carry the previous
		// evaluation's warm-start state, which the re-solve of this request
		// can start from instead of cold (see warmStart).
		stale = cr
		e.m.inc(statResultsInvalidated)
	}
	e.results.Drop(key, ent)
	e.m.inc(statResultMisses)
	return nil, stale
}

// resultPut stores one locally solved result.
func (e *Engine) resultPut(key string, cr *cachedResult) {
	e.results.Put(key, &resultcache.Entry{Table: cr.query.Table, Version: cr.relVersion, Local: cr})
}

// Query evaluates one request under admission control in three steps:
// prepare parses the query and renders its result key, lookup serves
// identical requests from the result cache (no solve slot needed), and
// evaluate waits for a solve slot (rejecting immediately when MaxQueue other
// queries are already waiting), bounds the evaluation by the request
// timeout, and runs the selected method with the engine's parallelism.
//
// Every evaluation is traced. When the context already carries a span (the
// async job manager installs the job's root span), the evaluation's phases
// nest under it; otherwise the engine mints a trace of its own — honoring
// Request.TraceParent's trace ID — which Result.Trace renders on demand.
// Tracing is purely observational: spans never join cache
// keys and never feed solver state, so traced and untraced runs are
// bit-identical.
func (e *Engine) Query(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if obs.SpanFromContext(ctx) != nil {
		return e.query(ctx, req)
	}
	tr := e.startTrace(req.TraceParent)
	root := tr.Root()
	start := time.Now()
	res, err := e.query(obs.ContextWithSpan(ctx, root), req)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	e.maybeLogSlow(tr, req.Query, req.Method, time.Since(start))
	if res != nil {
		res.trace = tr
	}
	return res, err
}

// maybeLogSlow emits the slow-query log event when the evaluation cleared
// the configured threshold: one structured event carrying the trace ID and
// the rendered span tree.
func (e *Engine) maybeLogSlow(tr *obs.Trace, query, method string, d time.Duration) {
	if e.opts.Logger == nil || e.opts.SlowQuery <= 0 || d < e.opts.SlowQuery {
		return
	}
	data := tr.Data()
	e.opts.Logger.Event("slow_query", map[string]any{
		"trace_id":    data.TraceID,
		"method":      method,
		"query":       query,
		"duration_ms": d.Milliseconds(),
		"trace":       data.Render(),
	})
}

// query is Query's body; ctx carries the evaluation's parent span.
func (e *Engine) query(ctx context.Context, req Request) (*Result, error) {
	e.m.inc(statQueries)

	// An already-cancelled context never evaluates — not even from the
	// result cache.
	if err := ctx.Err(); err != nil {
		e.m.inc(statFailures)
		return nil, err
	}
	sp := obs.SpanFromContext(ctx)
	var pr prepared
	if err := e.prepare(sp, req, &pr); err != nil {
		return nil, err
	}
	if res := e.lookup(sp, &pr); res != nil {
		return res, nil
	}
	return e.evaluate(ctx, &pr)
}

// prepared is a request after the work every entry point does once: the
// parsed statement, the canonical method, the effective options and the
// result key. Submit prepares at submission, so a queued job never parses
// or keys again.
type prepared struct {
	req     Request
	q       *spaql.Query
	qstr    string
	method  string
	timeout time.Duration
	opts    core.Options // without Progress, which evaluate installs
	sopts   *sketch.Options
	rkey    string
	// stale is the result-cache entry a delta invalidated for this request,
	// set by lookup: its warm-start state rides to evaluate.
	stale *cachedResult
}

// prepare fills pr from the request: it parses the query under a "parse"
// child of sp, canonicalizes the method and options, and renders the result
// key. A failure is counted and wrapped in ErrBadQuery. The caller owns pr,
// so Engine.Query keeps it off the heap.
func (e *Engine) prepare(sp *obs.Span, req Request, pr *prepared) error {
	ps := sp.StartChild("parse")
	q, err := spaql.Parse(req.Query)
	if err != nil {
		ps.SetAttr("error", err.Error())
		ps.End()
		e.m.inc(statFailures)
		return fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	pr.req, pr.q, pr.qstr = req, q, q.String()
	ps.End()

	// method is canonicalized: "" and "summarysearch" are the same
	// computation and must share one result entry.
	switch pr.method = strings.ToLower(req.Method); pr.method {
	case "":
		pr.method = "summarysearch"
	case "summarysearch", "naive", "sketch":
	default:
		e.m.inc(statFailures)
		return fmt.Errorf("%w %q", ErrUnknownMethod, req.Method)
	}

	pr.timeout = req.Timeout
	if pr.timeout <= 0 {
		pr.timeout = e.opts.DefaultTimeout
	}
	if req.Options != nil {
		pr.opts = *req.Options
	}
	if pr.opts.Parallelism == 0 {
		pr.opts.Parallelism = e.opts.Parallelism
	}
	if pr.method == "sketch" {
		s := sketch.Options{}
		if req.Sketch != nil {
			s = *req.Sketch
		}
		if s.Workers == 0 {
			s.Workers = pr.opts.Parallelism
		}
		pr.sopts = &s
	}
	pr.rkey = resultKey(pr.qstr, pr.method, &pr.opts, pr.timeout, pr.sopts)
	sp.SetAttr("method", pr.method)
	return nil
}

// lookup answers a prepared request from the result cache, counting one hit
// or one miss. Identical deterministic requests are answered without
// solving, and without consuming a solve slot or queue capacity; nil means
// evaluate must solve, and pr.stale then holds the entry a delta invalidated.
func (e *Engine) lookup(sp *obs.Span, pr *prepared) *Result {
	var cr *cachedResult
	cr, pr.stale = e.resultGet(pr.rkey)
	if cr == nil {
		return nil
	}
	sp.SetAttr("result_cache", "hit")
	return &Result{Solution: cr.sol, Query: cr.query, Rel: cr.rel, ResultCacheHit: true, Sketch: cr.sketch, cached: cr}
}

// evaluate solves a prepared request the result cache missed: admission,
// the plan, and the selected method under the request's deadline. ctx
// carries the evaluation's parent span.
func (e *Engine) evaluate(ctx context.Context, pr *prepared) (*Result, error) {
	sp := obs.SpanFromContext(ctx)
	req, method, timeout := pr.req, pr.method, pr.timeout
	opts := pr.opts
	if req.Progress != nil {
		opts.Progress = req.Progress
	}

	// Admission control: the deficit-round-robin fair scheduler bounds the
	// total commitment (solving + waiting) by MaxInFlight + MaxQueue
	// globally and by each tenant's own quota, and keeps the admission
	// ledger. It folds an unknown tenant label into the default lane.
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	enqueued := time.Now()
	ws := sp.StartChild("wait")
	if err := e.sched.Acquire(ctx, req.Tenant); err != nil {
		ws.SetAttr("error", err.Error())
		ws.End()
		if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrTenantQuota) {
			// The request entered the queue and its context expired waiting.
			e.m.inc(statFailures)
		}
		return nil, err
	}
	ws.End()
	defer e.sched.Release(req.Tenant)
	wait := time.Since(enqueued)
	e.m.admissionWait.Observe(wait.Seconds())
	if req.onAdmit != nil {
		req.onAdmit()
	}

	// Deadline-aware degradation: clamp the evaluation's budgets so a
	// too-slow solve returns its anytime best-so-far package instead of
	// dying on the context deadline. The clamps are applied strictly after
	// rkey was rendered from the pristine options, and a clamped (budget-
	// cut) solution is never cached, so deadlines and classes stay out of
	// every cache key and determinism is preserved.
	engineClamped := false
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
		// returns best-so-far) before the hard context deadline cuts a
		// round short, which core answers with its incumbent only once a
		// feasible one exists.
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

	pls := sp.StartChild("plan")
	p, hit, err := e.planFor(pr.q, pr.qstr)
	if err != nil {
		pls.SetAttr("error", err.Error())
		pls.End()
		e.m.inc(statFailures)
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	if hit {
		pls.SetAttr("plan_cache", "hit")
	}
	pls.End()

	// Warm re-solve wiring (core methods only): start from the warm state of
	// the entry a delta invalidated for this request. Advisory — it does not
	// join the result key, and a warm solve that fails to validate falls back
	// to the cold path inside core.
	if method != "sketch" {
		if w := e.warmStart(pr.stale, p); w != nil {
			opts.Warm = w
			sp.SetAttr("warm", "hint")
		}
	}

	solveStart := time.Now()
	sctx, ss := obs.StartSpan(ctx, method)
	var sol *core.Solution
	var sstats *sketch.Stats
	switch method {
	case "summarysearch":
		sol, err = core.SummarySearchCtx(sctx, p.silp, &opts)
	case "naive":
		sol, err = core.NaiveCtx(sctx, p.silp, &opts)
	case "sketch":
		sol, sstats, err = sketch.SolveSILP(sctx, p.silp, &opts, pr.sopts)
		if sstats != nil {
			e.m.inc(statSketchQueries)
			e.m.add(statShardSolves, int64(sstats.ShardSolves))
			ss.SetInt("shard_solves", int64(sstats.ShardSolves))
		}
	}
	if err != nil {
		ss.SetAttr("error", err.Error())
	}
	ss.End()
	e.m.solveLatency.Observe(time.Since(solveStart).Seconds())
	if err != nil {
		e.m.inc(statFailures)
		if errors.Is(err, core.ErrInfeasible) {
			// The query's deterministic constraints are unsatisfiable:
			// that is a property of the request, not a server fault.
			return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
		}
		return nil, err
	}

	if sol.WarmResolve {
		e.m.inc(statWarmResolves)
	}
	e.m.addSolveTotals(sol.SolveTotals)

	// The solution's X indexes p.silp.Rel for every method: the sketch
	// pipeline maps its refine solution back to the plan's view. A solution
	// cut short by a budget (see core.Solution.HitLimit) is best-effort, not
	// deterministic — serving it to future identical requests would pin a
	// load-degraded answer — so it is not cached. (For sketch, the mark
	// also carries the gravest stop of its shard solves.)
	degraded := false
	var cr *cachedResult
	if sol.HitLimit(&opts) {
		if engineClamped || ctx.Err() != nil {
			// An engine-applied budget bound, or the request deadline that
			// core answered with its feasible incumbent: degrade to the
			// anytime best-so-far package when one exists, fail with the
			// dedicated 429 when nothing feasible was found in time.
			if !sol.Feasible {
				sp.SetAttr("degraded", "no_feasible")
				e.m.inc(statFailures)
				return nil, ErrDegraded
			}
			degraded = true
			sp.SetAttr("degraded", "true")
			e.sched.degrade(req.Tenant)
		}
	} else {
		cr = &cachedResult{
			sol: sol, sketch: sstats, query: p.query, rel: p.silp.Rel,
			table: p.table, relVersion: p.relVersion, attrs: p.attrs,
		}
		e.resultPut(pr.rkey, cr)
	}
	return &Result{Solution: sol, Query: p.query, Rel: p.silp.Rel, CacheHit: hit, Sketch: sstats, Wait: wait, Degraded: degraded, cached: cr}, nil
}
