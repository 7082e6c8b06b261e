package engine

import (
	"time"

	"spq/client"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/stream"
)

// engineMetrics is the engine's single set of operational instruments,
// registered by name in one obs.Registry. Both operator surfaces read from
// it — GET /metrics renders the registry, and Stats() (GET /stats) loads
// the same instruments — so the two cannot drift.
type engineMetrics struct {
	reg *obs.Registry

	queries      *obs.Counter
	failures     *obs.Counter
	rejected     *obs.Counter
	planHits     *obs.Counter
	planMisses   *obs.Counter
	resultHits   *obs.Counter
	resultMisses *obs.Counter

	sketchQueries *obs.Counter
	shardSolves   *obs.Counter

	// Delta-maintenance instruments: mutations accepted, cached state
	// retained vs invalidated by footprint, and warm re-solves served.
	deltasApplied      *obs.Counter
	resultsRetained    *obs.Counter
	resultsInvalidated *obs.Counter
	plansRebased       *obs.Counter
	warmResolves       *obs.Counter

	milpSolves     *obs.Counter
	milpNodes      *obs.Counter
	lpIters        *obs.Counter
	lpWarmStarts   *obs.Counter
	lpDegenPivots  *obs.Counter
	lpBoundFlips   *obs.Counter
	presolveRows   *obs.Counter
	presolveCols   *obs.Counter
	milpWorkersMax *obs.Gauge

	// active counts queries holding a solve slot; queued is the engine's
	// total admission commitment (waiting + solving) — the /metrics queue
	// gauge reports the waiting backlog, derived at scrape time exactly
	// like Stats.Queued.
	active *obs.Gauge
	queued *obs.Gauge

	jobsSubmitted *obs.Counter
	jobsCompleted *obs.Counter
	jobsCancelled *obs.Counter
	jobsEvicted   *obs.Counter
	jobsRunning   *obs.Gauge

	// Per-tenant admission counters, labelled by scheduler lane name
	// (unknown tenant labels fold into the default lane before these are
	// touched, so cardinality is bounded by configuration).
	tenantAdmitted *obs.CounterVec
	tenantQueued   *obs.CounterVec
	tenantRejected *obs.CounterVec
	tenantDegraded *obs.CounterVec

	admissionWait *obs.Histogram
	solveLatency  *obs.Histogram
	cancelLatency *obs.Histogram
	// phase records every finished trace span's duration under its bounded
	// phase label (obs.PhaseName): parse, plan, wait, generate, summarize,
	// validate, probe, solve, partition, sketch/shard, refine, fallback,
	// and the per-method evaluation spans.
	phase *obs.HistogramVec
}

func newEngineMetrics(e *Engine) *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{reg: r}

	m.queries = r.NewCounter("spq_queries_total", "Queries accepted for evaluation (including cache hits and failures).")
	m.failures = r.NewCounter("spq_query_failures_total", "Queries that ended in an error (bad query, timeout, cancellation, solver failure).")
	m.rejected = r.NewCounter("spq_queries_rejected_total", "Queries rejected by admission control (HTTP 429).")
	m.planHits = r.NewCounter("spq_plan_cache_hits_total", "Plan cache hits.")
	m.planMisses = r.NewCounter("spq_plan_cache_misses_total", "Plan cache misses.")
	m.resultHits = r.NewCounter("spq_result_cache_hits_total", "Queries answered from the result cache without solving.")
	m.resultMisses = r.NewCounter("spq_result_cache_misses_total", "Result cache lookups that found no valid entry.")
	m.deltasApplied = r.NewCounter("spq_deltas_applied_total", "Relation deltas accepted by the engine's mutation surface.")
	m.resultsRetained = r.NewCounter("spq_results_retained_after_delta_total", "Cached results rebased across a delta whose footprint missed their query.")
	m.resultsInvalidated = r.NewCounter("spq_results_invalidated_after_delta_total", "Cached results dropped because a delta's footprint hit their query.")
	m.plansRebased = r.NewCounter("spq_plans_rebased_after_delta_total", "Cached plans carried across a delta whose footprint missed their query.")
	m.warmResolves = r.NewCounter("spq_warm_resolves_total", "Queries answered by the warm re-solve fast path (patched summaries + seeded basis).")
	m.sketchQueries = r.NewCounter("spq_sketch_queries_total", "Method=sketch evaluations.")
	m.shardSolves = r.NewCounter("spq_sketch_shard_solves_total", "Per-shard sketch solves fanned out by method=sketch queries.")
	m.milpSolves = r.NewCounter("spq_milp_solves_total", "Branch-and-bound MILP solves run by finished queries.")
	m.milpNodes = r.NewCounter("spq_milp_nodes_total", "Branch-and-bound nodes explored by finished queries.")
	m.lpIters = r.NewCounter("spq_lp_iterations_total", "Simplex iterations run by finished queries (root and node LP solves).")
	m.lpWarmStarts = r.NewCounter("spq_lp_warm_starts_total", "Node LPs reinstated from a parent basis by dual simplex instead of solved cold.")
	m.lpDegenPivots = r.NewCounter("spq_lp_degen_pivots_total", "Degenerate simplex pivots (zero step length) across all LP solves.")
	m.lpBoundFlips = r.NewCounter("spq_lp_bound_flips_total", "Dual simplex iterations resolved by a bound flip instead of a basis exchange (eta update skipped).")
	m.presolveRows = r.NewCounter("spq_presolve_rows_total", "Constraint rows eliminated by MILP root presolve.")
	m.presolveCols = r.NewCounter("spq_presolve_cols_total", "Variable columns eliminated by MILP root presolve.")
	m.milpWorkersMax = r.NewGauge("spq_milp_workers_max", "Largest per-solve branch-and-bound worker bound observed.")
	m.active = r.NewGauge("spq_active_queries", "Queries currently holding a solve slot.")
	m.queued = r.NewGauge("spq_admission_commitment", "Total admission commitment: queries waiting for a slot plus queries solving.")
	r.NewGaugeFunc("spq_queued_queries", "Queries waiting for a solve slot (admission backlog).", func() float64 {
		w := m.queued.Value() - m.active.Value()
		if w < 0 {
			w = 0
		}
		return float64(w)
	})
	m.jobsSubmitted = r.NewCounter("spq_jobs_submitted_total", "Async jobs accepted by Submit.")
	m.jobsCompleted = r.NewCounter("spq_jobs_completed_total", "Jobs that reached succeeded or failed.")
	m.jobsCancelled = r.NewCounter("spq_jobs_cancelled_total", "Jobs cancelled by the caller.")
	m.jobsEvicted = r.NewCounter("spq_jobs_evicted_total", "Finished jobs dropped from the bounded history.")
	m.jobsRunning = r.NewGauge("spq_jobs_running", "Jobs currently in the running state.")

	m.tenantAdmitted = r.NewCounterVec("spq_tenant_admitted_total", "Queries admitted to a solve slot, by tenant lane.", "tenant")
	m.tenantQueued = r.NewCounterVec("spq_tenant_queued_total", "Queries that entered the admission queue, by tenant lane.", "tenant")
	m.tenantRejected = r.NewCounterVec("spq_tenant_rejected_total", "Queries rejected by admission control (overloaded or tenant_quota), by tenant lane.", "tenant")
	m.tenantDegraded = r.NewCounterVec("spq_tenant_degraded_total", "Responses degraded to the anytime best-so-far package by an engine-applied budget, by tenant lane.", "tenant")

	m.admissionWait = r.NewHistogram("spq_admission_wait_seconds", "Time queries waited for a solve slot.", nil)
	m.solveLatency = r.NewHistogram("spq_solve_seconds", "Evaluation wall-clock per solved query (cache hits excluded).", nil)
	m.cancelLatency = r.NewHistogram("spq_cancel_latency_seconds", "Time from a cancel request to the job reaching a terminal state.", nil)
	m.phase = r.NewHistogramVec("spq_phase_latency_seconds", "Per-phase latency from trace spans, labelled by phase.", "phase", nil)

	r.NewGaugeFunc("spq_plan_cache_entries", "Plan cache size in entries.", func() float64 {
		return float64(e.plans.Len())
	})
	r.NewGaugeFunc("spq_result_cache_entries", "Result cache size in entries.", func() float64 {
		return float64(e.results.Len())
	})
	// Streaming-pipeline and out-of-core block-cache instruments read the
	// process-wide counters at scrape time (same snapshot Stats() reports).
	r.NewGaugeFunc("spq_stream_blocks_generated", "Scenario value blocks realized on demand by streaming cursors.", func() float64 { return float64(stream.Counters().BlocksGenerated) })
	r.NewGaugeFunc("spq_stream_values_generated", "Individual scenario values realized by streaming cursors.", func() float64 { return float64(stream.Counters().ValuesGenerated) })
	r.NewGaugeFunc("spq_pushdown_kept_tuples", "Tuples that survived WHERE predicate pushdown before scenario generation.", func() float64 { return float64(stream.Counters().PushdownKept) })
	r.NewGaugeFunc("spq_pushdown_filtered_tuples", "Tuples eliminated by WHERE predicate pushdown before scenario generation.", func() float64 { return float64(stream.Counters().PushdownFiltered) })
	r.NewGaugeFunc("spq_colcache_hits", "Out-of-core column block-cache lookups served from cache.", func() float64 { return float64(relation.CacheStats().Hits) })
	r.NewGaugeFunc("spq_colcache_misses", "Out-of-core column block loads (cache misses).", func() float64 { return float64(relation.CacheStats().Misses) })
	r.NewGaugeFunc("spq_colcache_evictions", "Out-of-core column blocks evicted from the cache.", func() float64 { return float64(relation.CacheStats().Evictions) })
	r.NewGaugeFunc("spq_colcache_resident_bytes", "Bytes of out-of-core column blocks currently cached.", func() float64 { return float64(relation.CacheStats().ResidentBytes) })
	// Delta-maintenance instruments below read the process-wide counters of
	// the relation and summarization layers at scrape time.
	r.NewGaugeFunc("spq_delta_cells_patched", "Deterministic column cells patched by applied deltas.", func() float64 { return float64(relation.DeltaStats().CellsPatched) })
	r.NewGaugeFunc("spq_partitions_retained", "Cached partitionings rebased across a delta untouched (footprint disjoint from the features).", func() float64 { return float64(relation.DeltaStats().PartitionsRetained) })
	r.NewGaugeFunc("spq_partitions_patched", "Cached partitionings patched shard-wise (only affected shards re-clustered).", func() float64 { return float64(relation.DeltaStats().PartitionsPatched) })
	r.NewGaugeFunc("spq_partitions_rebuilt", "Partitionings built from scratch.", func() float64 { return float64(relation.DeltaStats().PartitionsRebuilt) })
	r.NewGaugeFunc("spq_partition_shards_rebuilt", "Shards re-clustered by partitioning patches.", func() float64 { return float64(relation.DeltaStats().ShardsRebuilt) })
	r.NewGaugeFunc("spq_partition_shards_retained", "Shards carried over unchanged by partitioning patches and rebases.", func() float64 { return float64(relation.DeltaStats().ShardsRetained) })
	r.NewGaugeFunc("spq_stale_view_errors", "Reads rejected with ErrStaleView (view or partitioning superseded by a delta).", func() float64 { return float64(relation.DeltaStats().StaleViews) })
	r.NewGaugeFunc("spq_summary_tuples_patched", "Summary tuple folds recomputed by delta patches (the k in kxM).", func() float64 { return float64(stream.Counters().SummaryTuplesPatched) })
	r.NewGaugeFunc("spq_summary_tuples_reused", "Summary tuple folds reused unchanged by delta patches (the N-k in kxM).", func() float64 { return float64(stream.Counters().SummaryTuplesReused) })
	return m
}

// addSolveTotals folds one finished evaluation's solver work into the
// MILP and LP counters.
func (m *engineMetrics) addSolveTotals(t client.SolveTotals) {
	m.milpSolves.Add(int64(t.MILPSolves))
	m.milpNodes.Add(int64(t.MILPNodes))
	m.lpIters.Add(int64(t.LPIters))
	m.lpWarmStarts.Add(int64(t.WarmStarts))
	m.lpDegenPivots.Add(int64(t.DegenPivots))
	m.lpBoundFlips.Add(int64(t.BoundFlips))
	m.presolveRows.Add(int64(t.PresolveRows))
	m.presolveCols.Add(int64(t.PresolveCols))
	m.milpWorkersMax.SetMax(int64(t.MILPWorkers))
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
