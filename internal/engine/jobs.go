package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/obs"
	"spq/internal/relation"
	"spq/internal/remote"
	"spq/internal/spaql"
)

// This file is the engine's async job manager: the server side of the v1
// API. A Job wraps one Engine.Query call run on its own goroutine, so
// callers can submit work, observe per-iteration progress (fed by the
// core.Progress seam), poll best-so-far packages, and cancel — while the
// existing admission control, caches, and timeouts keep applying unchanged:
// the job's query goes through exactly the same Query path as a synchronous
// call. Wire rendering uses the client package's types, which are the v1
// JSON contract.

// maxJobEvents bounds each job's retained progress history; older events
// are dropped (their seq numbers remain monotone, so pollers notice gaps).
const maxJobEvents = 1024

// Job is one asynchronous query evaluation tracked by the engine. All
// exported access goes through Snapshot/Poll (wire-typed, race-free);
// Done() closes when the job reaches a terminal state.
type Job struct {
	id      string
	query   string
	method  string
	created time.Time
	cancel  context.CancelFunc
	done    chan struct{}
	// trace is the job's span tree, minted at submission (adopting the
	// upstream trace ID when the request carried one) and never nil. It is
	// strictly observational: the evaluation is bit-identical with or
	// without it.
	trace *obs.Trace

	mu       sync.Mutex
	state    client.JobState
	started  time.Time
	finished time.Time
	seq      int
	events   []client.Progress
	bestFeas bool
	bestObj  float64
	bestX    []float64
	bestRel  *relation.Relation
	// bestEps/bestM/bestZ/bestIter describe the adopted incumbent's round:
	// the achieved validation gap and scenario/summary counts. They render
	// the degraded wire result when a deadline salvages the best-so-far.
	bestEps   float64
	bestM     int
	bestZ     int
	bestIter  int
	result    *Result
	wire      *client.QueryResult // rendered once at completion
	wireTr    *client.TraceSpan   // rendered once at completion
	err       *client.Error
	cancelled bool          // CancelJob was called before the job finished
	cancelAt  time.Time     // first CancelJob call (cancel-latency metric)
	changed   chan struct{} // closed+replaced on every update (broadcast)
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the engine-level result and error of a finished job
// (nil, nil if the job is still active). Cancelled jobs report a
// context.Canceled-wrapping error via the wire Error only; here they
// return (nil, non-nil).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil
	}
	if j.err != nil {
		return nil, j.err
	}
	return j.result, nil
}

// bump advances the job's sequence number and wakes every poller. Callers
// hold j.mu.
func (j *Job) bump() {
	j.seq++
	close(j.changed)
	j.changed = make(chan struct{})
}

// Snapshot renders the job as its v1 wire resource. Events with Seq >
// since are included (pass the previous snapshot's Seq to receive only new
// ones; math.MaxInt suppresses events entirely).
//
// The O(N) best-package rendering happens outside the job mutex — the
// solve's progress callback takes that mutex synchronously, so a poller
// must never hold it for relation-sized work. Reading bestX/events after
// unlocking is safe: candidates are freshly allocated per report and the
// event log is append-only (trims copy to a new array).
func (j *Job) Snapshot(since int) *client.Job {
	j.mu.Lock()
	out := &client.Job{
		ID:        j.id,
		State:     j.state,
		Query:     j.query,
		Method:    j.method,
		Seq:       j.seq,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		out.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.FinishedAt = &t
	}
	if n := len(j.events); n > 0 {
		ev := j.events[n-1]
		out.Progress = &ev
		for _, e := range j.events {
			if e.Seq > since {
				out.Events = append(out.Events, e)
			}
		}
	}
	bestX, bestRel := j.bestX, j.bestRel
	out.BestFeasible = j.bestFeas
	out.BestObjective = j.bestObj
	out.Result = j.wire
	out.Trace = j.wireTr // rendered once the job is terminal
	out.Error = j.err
	j.mu.Unlock()

	switch {
	case bestX != nil:
		out.BestPackage = packageOf(bestX, bestRel)
	case out.Result != nil:
		// A delta trimmed the job's package vector (trimAfterDelta): the
		// rendered wire result still carries the final package.
		out.BestFeasible = out.Result.Feasible
		out.BestObjective = out.Result.Objective
		out.BestPackage = out.Result.Package
	default:
		out.BestFeasible = false
		out.BestObjective = 0
	}
	return out
}

// trimAfterDelta releases a terminal job's relation-sized state once its
// table was mutated: the full Solution, the package vector, and — most
// importantly — the pinned pre-delta snapshot they reference are dropped, so
// a long job history cannot keep every superseded relation version resident.
// The rendered wire result (OrigIndex-mapped package tuples, objective,
// counters) keeps serving polls unchanged.
func (j *Job) trimAfterDelta(table string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() || j.wire == nil || j.result == nil {
		return
	}
	if j.result.Query == nil || !strings.EqualFold(j.result.Query.Table, table) {
		return
	}
	j.result = nil
	j.bestX = nil
	j.bestRel = nil
}

// Poll blocks until the job's sequence number exceeds since, the job is
// terminal, the wait elapses, or ctx is done — then returns a snapshot.
// A non-positive wait returns immediately (plain poll).
func (j *Job) Poll(ctx context.Context, since int, wait time.Duration) *client.Job {
	deadline := time.Now().Add(wait)
	for {
		j.mu.Lock()
		ready := j.seq > since || j.state.Terminal()
		ch := j.changed
		j.mu.Unlock()
		remain := time.Until(deadline)
		if ready || wait <= 0 || remain <= 0 {
			return j.Snapshot(since)
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
		if ctx.Err() != nil {
			return j.Snapshot(since)
		}
	}
}

// packageOf maps a candidate X (indexed like rel) to base-relation
// multiplicities, sorted by tuple index.
func packageOf(x []float64, rel *relation.Relation) []client.PackageTuple {
	mult := map[int]int{}
	for i, v := range x {
		if v > 0 {
			mult[rel.OrigIndex(i)] += int(v + 0.5)
		}
	}
	out := make([]client.PackageTuple, 0, len(mult))
	for t, c := range mult {
		out = append(out, client.PackageTuple{Tuple: t, Count: c})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tuple < out[b].Tuple })
	return out
}

// resultToWire renders an engine Result as the v1 result payload. raw adds
// the solver-fidelity solution (exact multiplicities over the solved view)
// for sub-problem submissions — the remote solver needs bit-exact values,
// not the rounded base-tuple package.
func resultToWire(res *Result, solve time.Duration, raw bool) *client.QueryResult {
	out := &client.QueryResult{
		Feasible:       res.Feasible,
		Objective:      res.Objective,
		Surpluses:      res.Surpluses,
		M:              res.M,
		Z:              res.Z,
		Iterations:     len(res.Iterations),
		PackageSize:    res.PackageSize(),
		Package:        packageOf(res.X, res.Rel),
		PlanCacheHit:   res.CacheHit,
		ResultCacheHit: res.ResultCacheHit,
		WaitMS:         res.Wait.Milliseconds(),
		SolveMS:        solve.Milliseconds(),
	}
	// eps_upper is +Inf when no bound exists; JSON has no Inf, so omit it.
	if !math.IsInf(res.EpsUpper, 0) && !math.IsNaN(res.EpsUpper) {
		out.EpsUpper = res.EpsUpper
	}
	if res.Degraded {
		out.Degraded = true
		out.Gap = out.EpsUpper // the achieved (not converged) validation gap
	}
	if res.Sketch != nil {
		out.Sketch = &client.SketchInfo{
			Groups:     res.Sketch.Groups,
			Shards:     res.Sketch.Shards,
			Candidates: res.Sketch.Candidates,
			FellBack:   res.Sketch.FellBack,
		}
	}
	if raw {
		out.Raw = remote.ToWireSolution(res.Solution)
	}
	return out
}

// errToWire maps an engine/evaluation error to the v1 error contract.
// Deterministic infeasibility gets its own stable code (it is a property of
// the problem, which distributed callers must distinguish from a worker
// fault), and a structured worker error already in the chain — the remote
// solver wraps them with %w — keeps its stable code instead of collapsing
// to "internal", so codes propagate end-to-end through any number of
// dispatch hops.
func errToWire(err error) *client.Error {
	var apiErr *client.Error
	switch {
	case errors.Is(err, ErrTenantQuota):
		// Checked before ErrOverloaded so the finer code wins if both are in
		// a chain: "my lane is full" is actionable per-tenant backpressure,
		// "the fleet is full" calls for global backoff.
		return &client.Error{Code: client.CodeTenantQuota, Message: err.Error(), RetryAfterMS: 1000, HTTPStatus: 429}
	case errors.Is(err, ErrOverloaded):
		return &client.Error{Code: client.CodeOverloaded, Message: err.Error(), RetryAfterMS: 1000, HTTPStatus: 429}
	case errors.Is(err, ErrDegraded):
		return &client.Error{Code: client.CodeDegradedUnavailable, Message: err.Error(), RetryAfterMS: 1000, HTTPStatus: 429}
	case errors.Is(err, context.DeadlineExceeded):
		return &client.Error{Code: client.CodeTimeout, Message: err.Error(), HTTPStatus: 504}
	case errors.Is(err, context.Canceled):
		return &client.Error{Code: client.CodeCancelled, Message: err.Error(), HTTPStatus: 504}
	case errors.Is(err, core.ErrInfeasible):
		// Checked before ErrBadQuery: the engine wraps infeasibility in
		// ErrBadQuery for the HTTP 400 mapping, but the finer code wins.
		return &client.Error{Code: client.CodeInfeasible, Message: err.Error(), HTTPStatus: 400}
	case errors.Is(err, ErrUnknownMethod):
		return &client.Error{Code: client.CodeUnknownMethod, Message: err.Error(), HTTPStatus: 400}
	case errors.Is(err, ErrBadQuery):
		return &client.Error{Code: client.CodeInvalidQuery, Message: err.Error(), HTTPStatus: 400}
	case errors.As(err, &apiErr):
		out := client.Error{
			Code:         apiErr.Code,
			Message:      err.Error(), // the full chain, worker context included
			RetryAfterMS: apiErr.RetryAfterMS,
			HTTPStatus:   apiErr.HTTPStatus,
		}
		if out.HTTPStatus == 0 {
			out.HTTPStatus = 500
		}
		return &out
	default:
		return &client.Error{Code: client.CodeInternal, Message: err.Error(), HTTPStatus: 500}
	}
}

// Submit starts one query evaluation asynchronously and returns its Job.
// The query text and method are validated synchronously (so malformed
// submissions fail fast with ErrBadQuery); admission of the solve itself
// happens inside the job, under the same control as synchronous queries.
// At most Options.MaxJobs jobs may be active at once; beyond that Submit
// fails with ErrOverloaded.
func (e *Engine) Submit(req Request) (*Job, error) {
	if _, err := spaql.Parse(req.Query); err != nil {
		e.m.queries.Inc()
		e.m.failures.Inc()
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	if m := strings.ToLower(req.Method); m != "sketch" {
		if _, err := core.SolverByName(m); err != nil {
			e.m.queries.Inc()
			e.m.failures.Inc()
			return nil, fmt.Errorf("%w %q", ErrUnknownMethod, req.Method)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:      fmt.Sprintf("q-%d", e.jobSeq.Add(1)),
		query:   req.Query,
		method:  strings.ToLower(req.Method),
		created: time.Now(),
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   client.JobQueued,
		changed: make(chan struct{}),
	}
	tid, parent := obs.ParseTraceParent(req.TraceParent)
	j.trace = e.newTrace(tid, "query")
	j.trace.Root().SetAttr("job", j.id)
	if parent != "" {
		j.trace.Root().SetAttr("parent", parent)
	}

	e.jobsMu.Lock()
	if len(e.jobList)-e.jobFinished >= e.opts.MaxJobs {
		e.jobsMu.Unlock()
		cancel()
		// Mirror Engine.Query's counting for rejected requests, so the
		// queries total means "requests received" on both entry points.
		e.m.queries.Inc()
		e.m.rejected.Inc()
		return nil, ErrOverloaded
	}
	e.jobsByID[j.id] = j
	e.jobList = append(e.jobList, j)
	e.jobsMu.Unlock()
	e.m.jobsSubmitted.Inc()

	go e.runJob(ctx, j, req)
	return j, nil
}

// runJob executes the job's query on the engine and finalizes the job.
func (e *Engine) runJob(ctx context.Context, j *Job, req Request) {
	req.onAdmit = func() {
		e.m.jobsRunning.Add(1)
		j.mu.Lock()
		j.state = client.JobRunning
		j.started = time.Now()
		j.bump()
		j.mu.Unlock()
	}
	userProgress := req.Progress
	req.Progress = func(p core.Progress) {
		j.observe(p)
		if userProgress != nil {
			userProgress(p)
		}
	}

	// The solve runs on this bare goroutine, not under net/http's
	// per-connection recovery: a panic on a poisoned query must fail the
	// one job, not take down the daemon and every other in-flight job.
	var res *Result
	var err error
	var solve time.Duration
	func() {
		defer func() {
			if r := recover(); r != nil {
				res, err = nil, fmt.Errorf("engine: evaluation panicked: %v", r)
				e.m.failures.Inc()
			}
		}()
		// A job cancelled while still queued must not complete from the
		// result cache.
		if err = ctx.Err(); err != nil {
			return
		}
		start := time.Now()
		res, err = e.Query(obs.ContextWithSpan(ctx, j.trace.Root()), req)
		solve = time.Since(start)
	}()

	root := j.trace.Root()
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()

	j.mu.Lock()
	if j.state == client.JobRunning {
		e.m.jobsRunning.Add(-1)
	}
	j.finished = time.Now()
	j.wireTr = j.trace.Data()
	if !j.cancelAt.IsZero() {
		e.m.cancelLatency.Observe(j.finished.Sub(j.cancelAt).Seconds())
	}
	switch {
	case err == nil:
		j.state = client.JobSucceeded
		j.result = res
		j.wire = resultToWire(res, solve, req.Solve != nil)
		// The final package is by definition the best one.
		j.bestFeas = res.Feasible
		j.bestObj = res.Objective
		j.bestX = res.X
		j.bestRel = res.Rel
		e.m.jobsCompleted.Inc()
	case j.cancelled && errors.Is(err, context.Canceled):
		j.state = client.JobCancelled
		j.err = &client.Error{Code: client.CodeCancelled, Message: "job cancelled by caller", HTTPStatus: 504}
		e.m.jobsCancelled.Inc()
	case !j.cancelled && j.bestFeas && j.bestX != nil &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDegraded)):
		// Deadline-aware degradation, job-manager side: the evaluation died
		// on its deadline, but the progress seam already delivered a
		// validated feasible incumbent (every report is a candidate that
		// passed validation against the pinned snapshot). Serve it as a
		// degraded success instead of failing — the paper's anytime
		// contract: the best package found within the budget.
		j.state = client.JobSucceeded
		size := 0.0
		for _, v := range j.bestX {
			size += v
		}
		w := &client.QueryResult{
			Feasible:    true,
			Degraded:    true,
			Objective:   j.bestObj,
			M:           j.bestM,
			Z:           j.bestZ,
			Iterations:  j.bestIter,
			PackageSize: size,
			Package:     packageOf(j.bestX, j.bestRel),
			SolveMS:     solve.Milliseconds(),
		}
		if !math.IsInf(j.bestEps, 0) && !math.IsNaN(j.bestEps) {
			w.EpsUpper = j.bestEps
			w.Gap = j.bestEps
		}
		j.wire = w
		e.m.jobsCompleted.Inc()
		e.m.tenantDegraded.With(e.sched.Canonical(req.Tenant)).Inc()
	default:
		j.state = client.JobFailed
		j.err = errToWire(err)
		e.m.jobsCompleted.Inc()
	}
	j.bump()
	elapsed := j.finished.Sub(j.created)
	j.mu.Unlock()
	close(j.done)
	j.cancel() // release the context's resources
	e.maybeLogSlow(j.trace, j.query, j.method, elapsed)

	// Bound the finished-job history.
	e.jobsMu.Lock()
	e.jobFinished++
	for e.jobFinished > e.opts.JobHistory {
		evicted := false
		for i, old := range e.jobList {
			old.mu.Lock()
			terminal := old.state.Terminal()
			old.mu.Unlock()
			if terminal {
				e.jobList = append(e.jobList[:i], e.jobList[i+1:]...)
				delete(e.jobsByID, old.id)
				e.jobFinished--
				e.m.jobsEvicted.Inc()
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	e.jobsMu.Unlock()
}

// observe folds one core progress report into the job's event log and
// best-so-far tracking. Reports may arrive concurrently (sketch shards).
// The report's Improved/Best* fields are phase-local (each sketch shard
// tracks its own incumbent), so the job-level best compares candidates
// itself — feasibility first, then objective in the query's sense — the
// same rule the core solvers apply.
func (j *Job) observe(p core.Progress) {
	// Relation-sized work stays outside the mutex (see Snapshot).
	size := 0.0
	for _, v := range p.X {
		size += v
	}
	// Only a direct solve, a sketch refine or its fallback reports a package
	// of the query. A sketch shard's X indexes a medoid view whose bounds are
	// raised to group capacity, so it is never a candidate to serve.
	queryPackage := p.Phase == "" || p.Phase == "refine" || p.Phase == "fallback"
	j.mu.Lock()
	defer j.mu.Unlock()
	if p.X != nil && queryPackage {
		adopt := j.bestX == nil
		if !adopt && p.Feasible != j.bestFeas {
			adopt = p.Feasible
		} else if !adopt && p.Feasible == j.bestFeas {
			if p.Maximize {
				adopt = p.Objective > j.bestObj
			} else {
				adopt = p.Objective < j.bestObj
			}
		}
		if adopt {
			j.bestFeas = p.Feasible
			j.bestObj = p.Objective
			j.bestX = p.X
			j.bestRel = p.Rel
			j.bestEps = p.EpsUpper
			j.bestM = p.M
			j.bestZ = p.Z
			j.bestIter = p.Iteration
		}
	}
	j.bump()
	j.events = append(j.events, client.Progress{
		Seq:           j.seq,
		Phase:         p.Phase,
		Iteration:     p.Iteration,
		M:             p.M,
		Z:             p.Z,
		Feasible:      p.Feasible,
		Objective:     p.Objective,
		Improved:      p.Improved,
		BestFeasible:  p.BestFeasible,
		BestObjective: p.BestObjective,
		PackageSize:   size,
		ElapsedMS:     p.Elapsed.Milliseconds(),
	})
	if len(j.events) > maxJobEvents {
		j.events = append(j.events[:0:0], j.events[len(j.events)-maxJobEvents:]...)
	}
}

// TraceData renders the job's span tree as its v1 wire type (the
// GET /v1/queries/{id}/trace payload). It works on running jobs too:
// unfinished spans report a zero duration.
func (j *Job) TraceData() *client.TraceSpan {
	return j.trace.Data()
}

// JobByID returns a tracked job (active or retained in history).
func (e *Engine) JobByID(id string) (*Job, bool) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.jobsByID[id]
	return j, ok
}

// CancelJob requests cancellation of a job. Cancelling a queued job
// withdraws it before it takes a solve slot; cancelling a running job
// aborts the solve through the context plumbing (the MILP search polls it
// per branch-and-bound node) and frees its admission slot. Terminal jobs
// are unaffected (cancel is idempotent). The returned bool reports whether
// the id was known.
func (e *Engine) CancelJob(id string) (*Job, bool) {
	j, ok := e.JobByID(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelled = true
		if j.cancelAt.IsZero() {
			j.cancelAt = time.Now()
		}
	}
	j.mu.Unlock()
	j.cancel()
	return j, true
}

// Jobs lists every tracked job in submission order (active first come
// first, then the bounded finished history interleaved at their original
// positions).
func (e *Engine) Jobs() []*Job {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	return append([]*Job(nil), e.jobList...)
}
