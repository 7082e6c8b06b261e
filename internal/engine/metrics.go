package engine

import (
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	"spq/client"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/stream"
)

// stat keys a scalar instrument the engine counts itself: its row of
// statTable and its live value in engineMetrics.v.
type stat int

const (
	statQueries stat = iota
	statFailures
	statPlanHits
	statPlanMisses
	statResultHits
	statResultMisses
	statSketchQueries
	statShardSolves
	statJobsSubmitted
	statJobsRunning
	statJobsCompleted
	statJobsCancelled
	statJobsEvicted
	statMILPSolves
	statMILPNodes
	statMILPWorkersMax
	statLPIters
	statLPWarmStarts
	statLPDegenPivots
	statLPBoundFlips
	statPresolveRows
	statPresolveCols
	statDeltasApplied
	statResultsRetained
	statResultsInvalidated
	statPlansRebased
	statWarmResolves
	numLiveStats
)

// statRow declares one scalar instrument: the Stats field it fills, named
// by its /stats key ("" for a series only /metrics carries), its /metrics
// family, type and HELP text, and, for a value the engine does not count
// itself, how to read it when sampled, given the sample's reading of the
// admission scheduler.
type statRow struct {
	key, name, typ, help string
	read                 func(*Engine, *admission) int64
}

// statTable is the one declaration of the engine's scalar instruments. The
// first numLiveStats rows are keyed by stat and read their live value; the
// rest derive theirs from the scheduler's ledger, the caches and the
// process-wide counters of the streaming and relation layers. Adding a
// scalar instrument takes one row here plus its Stats field, and a stat key
// if the engine counts it.
var statTable = [...]statRow{
	statQueries:            {"queries", "spq_queries_total", "counter", "Queries accepted for evaluation (including cache hits and failures).", nil},
	statFailures:           {"failures", "spq_query_failures_total", "counter", "Queries that ended in an error (bad query, timeout, cancellation, solver failure).", nil},
	statPlanHits:           {"cache_hits", "spq_plan_cache_hits_total", "counter", "Plan cache hits.", nil},
	statPlanMisses:         {"cache_misses", "spq_plan_cache_misses_total", "counter", "Plan cache misses.", nil},
	statResultHits:         {"result_cache_hits", "spq_result_cache_hits_total", "counter", "Queries answered from the result cache without solving.", nil},
	statResultMisses:       {"result_cache_misses", "spq_result_cache_misses_total", "counter", "Result cache lookups that found no valid entry.", nil},
	statSketchQueries:      {"sketch_queries", "spq_sketch_queries_total", "counter", "Method=sketch evaluations.", nil},
	statShardSolves:        {"shard_solves", "spq_sketch_shard_solves_total", "counter", "Per-shard sketch solves fanned out by method=sketch queries.", nil},
	statJobsSubmitted:      {"jobs_submitted", "spq_jobs_submitted_total", "counter", "Async jobs accepted by Submit.", nil},
	statJobsRunning:        {"jobs_running", "spq_jobs_running", "gauge", "Jobs currently in the running state.", nil},
	statJobsCompleted:      {"jobs_completed", "spq_jobs_completed_total", "counter", "Jobs that reached succeeded or failed.", nil},
	statJobsCancelled:      {"jobs_cancelled", "spq_jobs_cancelled_total", "counter", "Jobs cancelled by the caller.", nil},
	statJobsEvicted:        {"jobs_evicted", "spq_jobs_evicted_total", "counter", "Finished jobs dropped from the bounded history.", nil},
	statMILPSolves:         {"milp_solves", "spq_milp_solves_total", "counter", "Branch-and-bound MILP solves run by finished queries.", nil},
	statMILPNodes:          {"milp_nodes", "spq_milp_nodes_total", "counter", "Branch-and-bound nodes explored by finished queries.", nil},
	statMILPWorkersMax:     {"milp_workers_max", "spq_milp_workers_max", "gauge", "Largest per-solve branch-and-bound worker bound observed.", nil},
	statLPIters:            {"lp_iters", "spq_lp_iterations_total", "counter", "Simplex iterations run by finished queries (root and node LP solves).", nil},
	statLPWarmStarts:       {"lp_warm_starts", "spq_lp_warm_starts_total", "counter", "Node LPs reinstated from a parent basis by dual simplex instead of solved cold.", nil},
	statLPDegenPivots:      {"lp_degen_pivots", "spq_lp_degen_pivots_total", "counter", "Degenerate simplex pivots (zero step length) across all LP solves.", nil},
	statLPBoundFlips:       {"lp_bound_flips", "spq_lp_bound_flips_total", "counter", "Dual simplex iterations resolved by a bound flip instead of a basis exchange (eta update skipped).", nil},
	statPresolveRows:       {"presolve_rows", "spq_presolve_rows_total", "counter", "Constraint rows eliminated by MILP root presolve.", nil},
	statPresolveCols:       {"presolve_cols", "spq_presolve_cols_total", "counter", "Variable columns eliminated by MILP root presolve.", nil},
	statDeltasApplied:      {"deltas_applied", "spq_deltas_applied_total", "counter", "Relation deltas accepted by the engine's mutation surface.", nil},
	statResultsRetained:    {"results_retained_after_delta", "spq_results_retained_after_delta_total", "counter", "Cached results rebased across a delta whose footprint missed their query.", nil},
	statResultsInvalidated: {"results_invalidated_after_delta", "spq_results_invalidated_after_delta_total", "counter", "Cached results dropped because a delta's footprint hit their query.", nil},
	statPlansRebased:       {"plans_rebased_after_delta", "spq_plans_rebased_after_delta_total", "counter", "Cached plans carried across a delta whose footprint missed their query.", nil},
	statWarmResolves:       {"warm_resolves", "spq_warm_resolves_total", "counter", "Queries answered by the warm re-solve fast path (patched summaries + seeded basis).", nil},

	{"rejected", "spq_queries_rejected_total", "counter", "Queries rejected by admission control (HTTP 429).", func(_ *Engine, a *admission) int64 {
		var n int64
		for _, l := range a.lanes {
			n += l.Rejected
		}
		return n
	}},
	{"active", "spq_active_queries", "gauge", "Queries currently holding a solve slot.", func(_ *Engine, a *admission) int64 { return int64(a.inflight) }},
	{"queued", "spq_queued_queries", "gauge", "Queries waiting for a solve slot (admission backlog).", func(_ *Engine, a *admission) int64 { return int64(a.waiting) }},
	{"", "spq_admission_commitment", "gauge", "Total admission commitment: queries waiting for a slot plus queries solving.", func(_ *Engine, a *admission) int64 { return int64(a.inflight + a.waiting) }},
	{"plan_cache_len", "spq_plan_cache_entries", "gauge", "Plan cache size in entries.", func(e *Engine, _ *admission) int64 { return int64(e.plans.Len()) }},
	{"result_cache_len", "spq_result_cache_entries", "gauge", "Result cache size in entries.", func(e *Engine, _ *admission) int64 { return int64(e.results.Len()) }},
	{"stream_blocks", "spq_stream_blocks_generated", "gauge", "Scenario value blocks realized on demand by streaming cursors.", func(*Engine, *admission) int64 { return stream.Counters().BlocksGenerated }},
	{"stream_values", "spq_stream_values_generated", "gauge", "Individual scenario values realized by streaming cursors.", func(*Engine, *admission) int64 { return stream.Counters().ValuesGenerated }},
	{"pushdown_kept_tuples", "spq_pushdown_kept_tuples", "gauge", "Tuples that survived WHERE predicate pushdown before scenario generation.", func(*Engine, *admission) int64 { return stream.Counters().PushdownKept }},
	{"pushdown_filtered_tuples", "spq_pushdown_filtered_tuples", "gauge", "Tuples eliminated by WHERE predicate pushdown before scenario generation.", func(*Engine, *admission) int64 { return stream.Counters().PushdownFiltered }},
	{"colcache_hits", "spq_colcache_hits", "gauge", "Out-of-core column block-cache lookups served from cache.", func(*Engine, *admission) int64 { return relation.CacheStats().Hits }},
	{"colcache_misses", "spq_colcache_misses", "gauge", "Out-of-core column block loads (cache misses).", func(*Engine, *admission) int64 { return relation.CacheStats().Misses }},
	{"colcache_evictions", "spq_colcache_evictions", "gauge", "Out-of-core column blocks evicted from the cache.", func(*Engine, *admission) int64 { return relation.CacheStats().Evictions }},
	{"colcache_resident_bytes", "spq_colcache_resident_bytes", "gauge", "Bytes of out-of-core column blocks currently cached.", func(*Engine, *admission) int64 { return relation.CacheStats().ResidentBytes }},
	{"delta_cells_patched", "spq_delta_cells_patched", "gauge", "Deterministic column cells patched by applied deltas.", func(*Engine, *admission) int64 { return relation.DeltaStats().CellsPatched }},
	{"partitions_retained", "spq_partitions_retained", "gauge", "Cached partitionings rebased across a delta untouched (footprint disjoint from the features).", func(*Engine, *admission) int64 { return relation.DeltaStats().PartitionsRetained }},
	{"partitions_patched", "spq_partitions_patched", "gauge", "Cached partitionings patched shard-wise (only affected shards re-clustered).", func(*Engine, *admission) int64 { return relation.DeltaStats().PartitionsPatched }},
	{"partitions_rebuilt", "spq_partitions_rebuilt", "gauge", "Partitionings built from scratch.", func(*Engine, *admission) int64 { return relation.DeltaStats().PartitionsRebuilt }},
	{"shards_rebuilt", "spq_partition_shards_rebuilt", "gauge", "Shards re-clustered by partitioning patches.", func(*Engine, *admission) int64 { return relation.DeltaStats().ShardsRebuilt }},
	{"shards_retained", "spq_partition_shards_retained", "gauge", "Shards carried over unchanged by partitioning patches and rebases.", func(*Engine, *admission) int64 { return relation.DeltaStats().ShardsRetained }},
	{"summary_tuples_patched", "spq_summary_tuples_patched", "gauge", "Summary tuple folds recomputed by delta patches (the k in kxM).", func(*Engine, *admission) int64 { return stream.Counters().SummaryTuplesPatched }},
	{"summary_tuples_reused", "spq_summary_tuples_reused", "gauge", "Summary tuple folds reused unchanged by delta patches (the N-k in kxM).", func(*Engine, *admission) int64 { return stream.Counters().SummaryTuplesReused }},
}

// statSample is one reading of every statTable row, in table order, and
// the scheduler reading its admission rows came from. Stats and GET
// /metrics both render a single sample, so the two surfaces cannot disagree
// on any instrument.
type statSample struct {
	v   [len(statTable)]int64
	adm admission
}

// laneFamilies declares the per-lane counter families GET /metrics renders
// from a sample's scheduler reading, one TenantStats field each.
var laneFamilies = [...]struct {
	name, help string
	read       func(TenantStats) int64
}{
	{"spq_tenant_admitted_total", "Queries admitted to a solve slot, by tenant lane.", func(l TenantStats) int64 { return l.Admitted }},
	{"spq_tenant_queued_total", "Queries that entered the admission queue, by tenant lane.", func(l TenantStats) int64 { return l.Queued }},
	{"spq_tenant_rejected_total", "Queries rejected by admission control (overloaded or tenant_quota), by tenant lane.", func(l TenantStats) int64 { return l.Rejected }},
	{"spq_tenant_degraded_total", "Responses degraded to the anytime best-so-far package by an engine-applied budget, by tenant lane.", func(l TenantStats) int64 { return l.Degraded }},
}

// statsField[i] is the index of the Stats field row i fills, or -1 for a
// row only /metrics carries. Resolving the keys here panics at start-up if
// a row names no Stats field.
var statsField = func() (idx [len(statTable)]int) {
	t := reflect.TypeFor[Stats]()
	byKey := make(map[string]int, t.NumField())
	for i := range t.NumField() {
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		byKey[key] = i
	}
	for i, r := range statTable {
		f, ok := byKey[r.key]
		if !ok && r.key != "" {
			panic("engine: instrument " + r.name + " names no Stats field " + r.key)
		}
		idx[i] = -1
		if ok {
			idx[i] = f
		}
	}
	return idx
}()

// engineMetrics holds the live values of the counted table rows and the
// registry of the bucketed instruments.
type engineMetrics struct {
	v   [numLiveStats]atomic.Int64
	reg *obs.Registry

	admissionWait *obs.Histogram
	solveLatency  *obs.Histogram
	cancelLatency *obs.Histogram
	// phase records every finished trace span's duration under its bounded
	// phase label (obs.PhaseName): parse, plan, wait, generate, summarize,
	// validate, probe, solve, partition, sketch/shard, refine, fallback,
	// and the per-method evaluation spans.
	phase *obs.HistogramVec
}

func newEngineMetrics() *engineMetrics {
	r := obs.NewRegistry()
	return &engineMetrics{
		reg:           r,
		admissionWait: r.NewHistogram("spq_admission_wait_seconds", "Time queries waited for a solve slot."),
		solveLatency:  r.NewHistogram("spq_solve_seconds", "Evaluation wall-clock per solved query (cache hits excluded)."),
		cancelLatency: r.NewHistogram("spq_cancel_latency_seconds", "Time from a cancel request to the job reaching a terminal state."),
		phase:         r.NewHistogramVec("spq_phase_latency_seconds", "Per-phase latency from trace spans, labelled by phase.", "phase"),
	}
}

// inc adds one to a counted row.
func (m *engineMetrics) inc(s stat) { m.v[s].Add(1) }

// add moves a counted row by d.
func (m *engineMetrics) add(s stat, d int64) { m.v[s].Add(d) }

// addSolveTotals folds one finished evaluation's solver work into the
// MILP and LP counters.
func (m *engineMetrics) addSolveTotals(t client.SolveTotals) {
	m.add(statMILPSolves, int64(t.MILPSolves))
	m.add(statMILPNodes, int64(t.MILPNodes))
	m.add(statLPIters, int64(t.LPIters))
	m.add(statLPWarmStarts, int64(t.WarmStarts))
	m.add(statLPDegenPivots, int64(t.DegenPivots))
	m.add(statLPBoundFlips, int64(t.BoundFlips))
	m.add(statPresolveRows, int64(t.PresolveRows))
	m.add(statPresolveCols, int64(t.PresolveCols))
	// The workers row is a high-water mark.
	hw, w := &m.v[statMILPWorkersMax], int64(t.MILPWorkers)
	for cur := hw.Load(); w > cur; cur = hw.Load() {
		if hw.CompareAndSwap(cur, w) {
			break
		}
	}
}

// sample reads the scheduler once and then every statTable row.
func (e *Engine) sample() *statSample {
	s := &statSample{adm: e.sched.read()}
	for i, r := range statTable {
		if r.read != nil {
			s.v[i] = r.read(e, &s.adm)
		} else {
			s.v[i] = e.m.v[i].Load()
		}
	}
	return s
}

// Stats returns a snapshot of the engine's counters: one sample of the
// instrument table and the scheduler's lanes, plus the admission limits and
// the figures derived from the bucketed instruments.
func (e *Engine) Stats() Stats { return e.statsOf(e.sample()) }

func (e *Engine) statsOf(s *statSample) Stats {
	st := Stats{
		Tenants:     s.adm.lanes,
		SolveTimeMS: int64(e.m.solveLatency.Sum() * 1000),
		MaxInFlight: e.opts.MaxInFlight,
		MaxQueue:    e.opts.MaxQueue,
	}
	sv := reflect.ValueOf(&st).Elem()
	for i, f := range statsField {
		if f >= 0 {
			sv.Field(f).SetInt(s.v[i])
		}
	}
	for _, l := range s.adm.lanes {
		st.Degraded += l.Degraded
	}
	return st
}

// writeMetrics renders GET /metrics: a sample of the instrument table, its
// scheduler lanes as the per-tenant families, then the registry's bucketed
// families.
func (e *Engine) writeMetrics(w io.Writer, s *statSample) {
	for i, r := range statTable {
		obs.WriteSample(w, r.name, r.help, r.typ, s.v[i])
	}
	for _, f := range laneFamilies {
		v := make(map[string]int64, len(s.adm.lanes))
		for name, l := range s.adm.lanes {
			v[name] = f.read(l)
		}
		obs.WriteLabelled(w, f.name, f.help, "counter", "tenant", v)
	}
	e.m.reg.WritePrometheus(w)
}

// observeSpan is the Trace → metrics bridge: every finished span feeds the
// phase-latency histogram under its bounded phase label.
func (m *engineMetrics) observeSpan(name string, d time.Duration) {
	m.phase.Observe(obs.PhaseName(name), d.Seconds())
}

// newTrace mints a trace whose span completions feed the engine's
// phase-latency histograms. id "" mints a fresh trace ID.
func (e *Engine) newTrace(id, rootName string) *obs.Trace {
	if id == "" {
		id = obs.NewTraceID()
	}
	tr := obs.NewTraceWithID(id, rootName)
	tr.OnSpanEnd(e.m.observeSpan)
	return tr
}
