package client

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file is the v1 wire contract: the JSON types exchanged by the
// /v1/queries endpoints. It is shared by the server (internal/engine
// marshals these) and the Client, so the two can never drift. Everything
// here is plain data — no behaviour beyond Error, the span-tree rendering
// and the solver-work sums.

// Stable error codes of the v1 error envelope. Codes are part of the API
// contract: clients may switch on them; messages are human-readable and may
// change.
const (
	// CodeBadRequest reports a malformed request body or parameters.
	CodeBadRequest = "bad_request"
	// CodeInvalidQuery reports an sPaQL query that fails to parse,
	// references an unknown table, cannot be translated, or is
	// deterministically infeasible.
	CodeInvalidQuery = "invalid_query"
	// CodeUnknownMethod reports an unrecognized evaluation method.
	CodeUnknownMethod = "unknown_method"
	// CodeNotFound reports an unknown route or job id.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed reports an HTTP method the route does not serve.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded reports admission rejection because the engine's global
	// capacity (in-flight + queue) is exhausted (HTTP 429); the response
	// carries Retry-After.
	CodeOverloaded = "overloaded"
	// CodeTenantQuota reports admission rejection because the request's
	// tenant hit its own queue-depth quota while the engine still had global
	// capacity (HTTP 429 + Retry-After). Distinguished from CodeOverloaded so
	// a tenant can tell "the server is full, back off globally" from "my lane
	// is full, my own traffic is the problem".
	CodeTenantQuota = "tenant_quota"
	// CodeDegradedUnavailable reports that an engine-budgeted (query-class or
	// deadline-derived) evaluation ran out of budget before finding any
	// feasible package, so there was nothing to degrade to (HTTP 429 +
	// Retry-After; retrying when the system is less loaded may succeed).
	CodeDegradedUnavailable = "degraded_unavailable"
	// CodeTimeout reports a query that exceeded its evaluation deadline.
	CodeTimeout = "timeout"
	// CodeCancelled reports a query cancelled by the caller.
	CodeCancelled = "cancelled"
	// CodeInfeasible reports a query whose deterministic constraints are
	// unsatisfiable — a property of the request, not a server fault. It is
	// distinguished from CodeInvalidQuery so that callers can tell "this
	// query has no solution" from "this query is malformed".
	CodeInfeasible = "infeasible"
	// CodeInternal reports a server-side evaluation failure (retryable).
	CodeInternal = "internal"
)

// Error is the structured error of the v1 API, delivered inside an
// ErrorEnvelope for HTTP-level failures and inline on failed Jobs. It
// implements the error interface so the Client returns it directly.
type Error struct {
	// Code is one of the stable Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// RetryAfterMS suggests a retry delay for code "overloaded".
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// HTTPStatus is the HTTP status the error travelled with (client-side
	// only; not serialized).
	HTTPStatus int `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("spqd: %s: %s", e.Code, e.Message)
}

// ErrorEnvelope wraps every non-2xx v1 response body.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// SolveOptions are the typed evaluation options of a v1 request. Zero
// values take the server's defaults; see core.Options for field semantics.
//
// The set covers the full determinism domain of an evaluation: a request
// that pins every field (seeds included) is answered bit-identically by any
// server holding the same relation, which is what lets the result cache
// answer a repeated request without solving. The worker count is the
// operator's (spqd -parallelism), not the request's: every count gives the
// same answer, and the server ignores a "parallelism" field that older
// clients still send. OPERATIONS.md "Knob table" gives each field's effect
// and the test that shows it.
type SolveOptions struct {
	Seed           uint64  `json:"seed,omitempty"`
	ValidationSeed uint64  `json:"validation_seed,omitempty"`
	ValidationM    int     `json:"validation_m,omitempty"`
	InitialM       int     `json:"initial_m,omitempty"`
	IncrementM     int     `json:"increment_m,omitempty"`
	MaxM           int     `json:"max_m,omitempty"`
	FixedZ         int     `json:"fixed_z,omitempty"`
	IncrementZ     int     `json:"increment_z,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`
	MaxCSAIters    int     `json:"max_csa_iters,omitempty"`
	// DisableAcceleration turns off the monotone-objective summary
	// modification (ablations).
	DisableAcceleration bool `json:"disable_acceleration,omitempty"`
	// TimeLimitMS / SolverTimeMS / SolverNodes / RelGap are the evaluation
	// and per-MILP-solve budgets. When a budget binds, the result depends on
	// it, so they join the result-cache key.
	TimeLimitMS  int64   `json:"time_limit_ms,omitempty"`
	SolverTimeMS int64   `json:"solver_time_ms,omitempty"`
	SolverNodes  int     `json:"solver_nodes,omitempty"`
	RelGap       float64 `json:"rel_gap,omitempty"`
}

// SketchOptions tune the partition-aware SketchRefine pipeline for method
// "sketch". Zero values take the server's defaults. Tuples are grouped by
// k-means, the only grouping: the server still reads a "strategy" field
// sent by older clients, accepts it absent or "kmeans", and refuses any
// other value with bad_request. Shards deals the tuples round-robin to that
// many shards, each clustered on its own, so the shard count changes the
// groups as well as the candidates the sketch proposes.
type SketchOptions struct {
	GroupSize     int    `json:"group_size,omitempty"`
	Shards        int    `json:"shards,omitempty"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
}

// TenantHeader is the HTTP header that names the tenant a request is
// admitted under. It overrides SubmitRequest.Tenant when both are present;
// requests carrying neither run as the default tenant. The tenant label is
// an admission-scheduling concern only: it never affects the evaluation
// result or joins any cache key.
const TenantHeader = "X-Spq-Tenant"

// TraceHeader is the HTTP header that propagates a caller's trace into the
// server: "<trace-id>/<parent-span-name>". The server roots the job's span
// tree under the caller's trace ID, so the two sides correlate under one
// trace.
const TraceHeader = "X-Spq-Trace"

// TraceSpan is one node of a job's span tree, served by
// GET /v1/queries/{id}/trace. It is the only span-tree type: the engine's
// traces render to it directly. Start times are absolute unix microseconds
// (so a caller's spans and the server's line up, modulo clock skew),
// durations are microseconds, and TraceID is set on roots.
type TraceSpan struct {
	TraceID     string            `json:"trace_id,omitempty"`
	Name        string            `json:"name"`
	StartUnixUS int64             `json:"start_us"`
	DurationUS  int64             `json:"duration_us"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Children    []*TraceSpan      `json:"children,omitempty"`
}

// Walk visits every span depth-first, parents before children.
func (t *TraceSpan) Walk(fn func(*TraceSpan)) {
	if t == nil {
		return
	}
	fn(t)
	for _, c := range t.Children {
		c.Walk(fn)
	}
}

// Render draws the span tree as an indented text listing with durations
// and attributes (what `spq -trace-tree` prints and the slow-query log
// carries).
func (t *TraceSpan) Render() string {
	var sb strings.Builder
	if t == nil {
		return ""
	}
	if t.TraceID != "" {
		sb.WriteString("trace " + t.TraceID + "\n")
	}
	t.render(&sb, 0)
	return sb.String()
}

func (t *TraceSpan) render(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(t.Name)
	sb.WriteString("  ")
	if t.DurationUS > 0 {
		sb.WriteString((time.Duration(t.DurationUS) * time.Microsecond).Round(10 * time.Microsecond).String())
	} else {
		sb.WriteString("(running)")
	}
	if t.TraceID != "" && depth > 0 {
		sb.WriteString("  [trace " + t.TraceID + "]")
	}
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString("  " + k + "=" + t.Attrs[k])
	}
	sb.WriteByte('\n')
	for _, c := range t.Children {
		c.render(sb, depth+1)
	}
}

// SubmitRequest is the body of POST /v1/queries (and one element of a
// batch submission).
type SubmitRequest struct {
	// Query is the sPaQL text.
	Query string `json:"query"`
	// Method selects the algorithm: "" or "summarysearch" (default),
	// "naive" or "sketch".
	Method string `json:"method,omitempty"`
	// TimeoutMS bounds the evaluation in milliseconds (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Options tune the evaluation; nil uses server defaults.
	Options *SolveOptions `json:"options,omitempty"`
	// Sketch tunes the sketch pipeline for method "sketch".
	Sketch *SketchOptions `json:"sketch,omitempty"`
	// Tenant names the tenant the request is admitted under ("" = default).
	// The TenantHeader, when present, takes precedence. Tenants shape
	// admission scheduling only — the evaluation result is bit-identical
	// whatever the label, and it stays out of every cache key.
	Tenant string `json:"tenant,omitempty"`
	// Class names the query class whose server-side budget (wall time, B&B
	// nodes) bounds the evaluation ("" = no class budget). A binding class
	// budget degrades the result to the anytime best-so-far package
	// (QueryResult.Degraded) instead of failing the job.
	Class string `json:"class,omitempty"`
	// TraceParent, when non-empty, nests the job's span tree under an
	// upstream trace ("<trace-id>/<parent-span-name>"). It travels as the
	// TraceHeader, not in the body, and is observational only: it never
	// affects the result or its cache key.
	TraceParent string `json:"-"`
}

// BatchRequest is the body of POST /v1/queries:batch.
type BatchRequest struct {
	Queries []SubmitRequest `json:"queries"`
}

// BatchItem is one outcome of a batch submission: exactly one of Job and
// Error is set. A rejected item does not abort the rest of the batch.
type BatchItem struct {
	Job   *Job   `json:"job,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// BatchResponse answers POST /v1/queries:batch, one item per submitted
// query, in request order.
type BatchResponse struct {
	Jobs []BatchItem `json:"jobs"`
}

// JobState is the lifecycle state of an async query job.
type JobState string

// The job state machine: queued → running → {succeeded, failed, cancelled}.
// A job answered from the server's result cache may skip running and go
// straight from queued to succeeded.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCancelled
}

// Progress is one streamed progress event: a snapshot of the anytime
// algorithm after one optimize/validate round (see core.Progress).
// BestFeasible and BestObjective describe the solve's one incumbent, the
// package it returns: within a phase, BestFeasible never goes from true to
// false and BestObjective never gets worse, and the last event of a
// successful direct solve equals the result's Feasible and Objective.
type Progress struct {
	// Seq is the job's monotone event sequence number; poll with
	// since=<seq> to receive only newer events.
	Seq int `json:"seq"`
	// Phase labels composite pipelines: "" for a direct solve,
	// "sketch/shard<i>" / "refine" / "fallback" inside method "sketch".
	Phase string `json:"phase,omitempty"`
	// Iteration counts optimize/validate rounds within the phase (1-based).
	Iteration int `json:"iteration"`
	// M and Z are the round's scenario/summary counts (Z is 0 for naive).
	M int `json:"m"`
	Z int `json:"z,omitempty"`
	// Feasible and Objective are the round's validation verdict.
	Feasible  bool    `json:"feasible"`
	Objective float64 `json:"objective"`
	// Improved reports whether this round's package became the incumbent;
	// BestFeasible/BestObjective describe the incumbent after the round.
	Improved      bool    `json:"improved,omitempty"`
	BestFeasible  bool    `json:"best_feasible"`
	BestObjective float64 `json:"best_objective"`
	// PackageSize is Σ multiplicities of the round's candidate package.
	PackageSize float64 `json:"package_size,omitempty"`
	// ElapsedMS is wall-clock time since the solve started.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// PackageTuple is one package member: a base-relation tuple index and its
// multiplicity.
type PackageTuple struct {
	Tuple int `json:"tuple"`
	Count int `json:"count"`
}

// SketchInfo reports what the sketch pipeline did for a method=sketch job.
type SketchInfo struct {
	Groups     int  `json:"groups"`
	Shards     int  `json:"shards"`
	Candidates int  `json:"candidates"`
	FellBack   bool `json:"fell_back"`
}

// SolveWork is the work of one MILP solve: branch-and-bound nodes, simplex
// iterations (root relaxation plus every node LP), node LPs reinstated from
// a parent basis, degenerate pivots, dual iterations resolved by a bound
// flip, and the rows and columns the root presolve eliminated.
// milp.Result and core.Iteration embed it rather than declare the counters
// again. All are deterministic for a fixed model and options whenever no
// wall-clock limit hit, and observational.
type SolveWork struct {
	Nodes        int `json:"nodes,omitempty"`
	LPIters      int `json:"lp_iters,omitempty"`
	WarmStarts   int `json:"warm_starts,omitempty"`
	DegenPivots  int `json:"degen_pivots,omitempty"`
	BoundFlips   int `json:"bound_flips,omitempty"`
	PresolveRows int `json:"presolve_rows,omitempty"`
	PresolveCols int `json:"presolve_cols,omitempty"`
}

// Add sums o into w.
func (w *SolveWork) Add(o SolveWork) {
	w.Nodes += o.Nodes
	w.LPIters += o.LPIters
	w.WarmStarts += o.WarmStarts
	w.DegenPivots += o.DegenPivots
	w.BoundFlips += o.BoundFlips
	w.PresolveRows += o.PresolveRows
	w.PresolveCols += o.PresolveCols
}

// SolveTotals sums the SolveWork of every MILP solve of one evaluation
// (the unconstrained x(0) solve included); MILPWorkers is the largest
// per-solve worker bound used. core.Solution embeds it; the engine folds it
// into its /stats counters.
type SolveTotals struct {
	MILPSolves   int `json:"milp_solves,omitempty"`
	MILPNodes    int `json:"milp_nodes,omitempty"`
	MILPWorkers  int `json:"milp_workers,omitempty"`
	LPIters      int `json:"lp_iters,omitempty"`
	WarmStarts   int `json:"warm_starts,omitempty"`
	DegenPivots  int `json:"degen_pivots,omitempty"`
	BoundFlips   int `json:"bound_flips,omitempty"`
	PresolveRows int `json:"presolve_rows,omitempty"`
	PresolveCols int `json:"presolve_cols,omitempty"`
}

// Add folds one solve, run with the given worker bound, into the totals.
func (t *SolveTotals) Add(w SolveWork, workers int) {
	t.MILPSolves++
	t.MILPNodes += w.Nodes
	t.MILPWorkers = max(t.MILPWorkers, workers)
	t.LPIters += w.LPIters
	t.WarmStarts += w.WarmStarts
	t.DegenPivots += w.DegenPivots
	t.BoundFlips += w.BoundFlips
	t.PresolveRows += w.PresolveRows
	t.PresolveCols += w.PresolveCols
}

// QueryResult is the final result of a succeeded job.
type QueryResult struct {
	Feasible    bool           `json:"feasible"`
	Objective   float64        `json:"objective"`
	EpsUpper    float64        `json:"eps_upper,omitempty"`
	Surpluses   []float64      `json:"surpluses,omitempty"`
	M           int            `json:"m"`
	Z           int            `json:"z,omitempty"`
	Iterations  int            `json:"iterations"`
	PackageSize float64        `json:"package_size"`
	Package     []PackageTuple `json:"package"`
	// PlanCacheHit / ResultCacheHit report the server's caches; a
	// result-cache hit means no solve ran (and no progress was streamed).
	PlanCacheHit   bool        `json:"plan_cache_hit,omitempty"`
	ResultCacheHit bool        `json:"result_cache_hit,omitempty"`
	Sketch         *SketchInfo `json:"sketch,omitempty"`
	// Degraded reports that an engine-applied budget (query-class or
	// deadline-derived) cut the evaluation short and this is the anytime
	// best-so-far feasible package rather than the converged answer. Gap is
	// the achieved validation gap (the best epsilon upper bound observed;
	// omitted when no finite bound was reached). Degraded results are never
	// served from or stored into the result cache.
	Degraded bool    `json:"degraded,omitempty"`
	Gap      float64 `json:"gap,omitempty"`
	// Stop names the budget that bound the evaluation: "time_cap" (a
	// wall-clock budget: solver_time_ms, time_limit_ms or a deadline),
	// "cancelled", or "node_cap" (solver_nodes); the gravest when several
	// did. Omitted when none did. A time cap or a cancellation is never
	// cached; a node cap repeats run to run and may be.
	Stop string `json:"stop,omitempty"`
	// WaitMS is the time the query spent waiting for a solve slot; SolveMS
	// the evaluation wall-clock.
	WaitMS  int64 `json:"wait_ms"`
	SolveMS int64 `json:"solve_ms"`
}

// Job is the resource served by GET /v1/queries/{id}: submission echo,
// lifecycle state, latest progress, the best-so-far package, and — once
// terminal — the result or error. Its span tree is not part of it: that is
// read from GET /v1/queries/{id}/trace (Client.Trace), running or finished.
type Job struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Query  string   `json:"query"`
	Method string   `json:"method,omitempty"`
	// Seq is the job's current sequence number; it advances on every state
	// change and progress event.
	Seq        int        `json:"seq"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Progress is the latest progress event; Events holds the events newer
	// than the poll's since parameter (server-side bounded history).
	Progress *Progress  `json:"progress,omitempty"`
	Events   []Progress `json:"events,omitempty"`
	// BestFeasible/BestObjective/BestPackage expose the incumbent package
	// while the job runs (and after), mapped to base-relation tuples. A
	// sketch shard's medoid package is no package of the query and never
	// becomes the incumbent.
	BestFeasible  bool           `json:"best_feasible,omitempty"`
	BestObjective float64        `json:"best_objective,omitempty"`
	BestPackage   []PackageTuple `json:"best_package,omitempty"`
	// Result is set once the job succeeded; Error once it failed or was
	// cancelled.
	Result *QueryResult `json:"result,omitempty"`
	Error  *Error       `json:"error,omitempty"`
}

// ListResponse answers GET /v1/queries.
type ListResponse struct {
	Jobs []*Job `json:"jobs"`
}

// DeltaRequest is the body of POST /v1/tables/{name}/deltas: a batch
// mutation of a registered table. Set patches deterministic-column cells
// (tuple indices key the inner map; JSON renders them as strings), Delete
// removes tuples, Append adds rows at the end (each row must supply every
// deterministic column). The order of application is set → delete → append.
type DeltaRequest struct {
	Set    map[string]map[int]float64 `json:"set,omitempty"`
	Delete []int                      `json:"delete,omitempty"`
	Append []map[string]float64       `json:"append,omitempty"`
}

// DeltaResponse reports what a delta changed: the version bracket and the
// change footprint downstream caches invalidate by.
type DeltaResponse struct {
	Table       string `json:"table"`
	FromVersion uint64 `json:"from_version"`
	Version     uint64 `json:"version"`
	// Cols lists deterministic columns with patched cells; TuplesSet counts
	// the distinct tuples they touched.
	Cols      []string `json:"cols,omitempty"`
	TuplesSet int      `json:"tuples_set,omitempty"`
	Appended  int      `json:"appended,omitempty"`
	Deleted   bool     `json:"deleted,omitempty"`
}
