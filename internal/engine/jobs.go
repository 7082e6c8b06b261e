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
	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/relation"
)

// This file is the engine's async job manager: the server side of the v1
// API. A Job wraps one query evaluation, so callers can submit work,
// observe per-iteration progress (fed by the core.Progress seam), poll
// best-so-far packages, and cancel — while the existing admission control,
// caches, and timeouts keep applying unchanged: the job runs the same
// prepare, lookup and evaluate steps as a synchronous Engine.Query call.
// Submit runs the first two itself, so a result-cache hit is answered
// inside the submission; only a miss evaluates on its own goroutine. Wire
// rendering uses the client package's types, which are the v1 JSON
// contract. A finished job keeps only its wire answer: the result or error,
// and for a failed or cancelled job its best package rendered once, so the
// job history pins no relation.

// maxJobEvents bounds each job's retained progress history; older events
// are dropped (their seq numbers remain monotone, so pollers notice gaps).
const maxJobEvents = 1024

// Job is one asynchronous query evaluation tracked by the engine. All
// exported access goes through Snapshot/Poll (wire-typed, race-free);
// Done() closes when the job reaches a terminal state. While it runs, the
// best-so-far package is held as a vector over its pinned relation; once it
// is terminal, only the rendered wire answer remains.
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

	mu        sync.Mutex
	state     client.JobState
	started   time.Time
	finished  time.Time
	seq       int
	events    []client.Progress
	bestFeas  bool
	bestObj   float64
	bestX     []float64
	bestRel   *relation.Relation
	bestPkg   []client.PackageTuple // bestX rendered once at failure or cancellation
	wire      *client.QueryResult   // rendered once at completion
	err       *client.Error
	cancelled bool          // CancelJob was called before the job finished
	cancelAt  time.Time     // first CancelJob call (cancel-latency metric)
	changed   chan struct{} // closed+replaced on every update (broadcast)
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

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
	bestX, bestRel, bestPkg := j.bestX, j.bestRel, j.bestPkg
	out.BestFeasible = j.bestFeas
	out.BestObjective = j.bestObj
	out.Result = j.wire
	out.Error = j.err
	j.mu.Unlock()

	switch {
	case out.Result != nil:
		// The final package is by definition the best one.
		out.BestFeasible = out.Result.Feasible
		out.BestObjective = out.Result.Objective
		out.BestPackage = out.Result.Package
	case bestX != nil:
		out.BestPackage = packageOf(bestX, bestRel)
	case bestPkg != nil:
		out.BestPackage = bestPkg
	default:
		out.BestFeasible = false
		out.BestObjective = 0
	}
	return out
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

// packageTuples renders the result's package as base-relation tuples,
// sharing the result-cache entry's rendering when there is one.
func (r *Result) packageTuples() []client.PackageTuple {
	if r.cached != nil {
		return r.cached.packageTuples()
	}
	return packageOf(r.X, r.Rel)
}

// resultToWire renders an engine Result as the v1 result payload.
func resultToWire(res *Result, solve time.Duration) *client.QueryResult {
	out := &client.QueryResult{
		Feasible:       res.Feasible,
		Objective:      res.Objective,
		Surpluses:      res.Surpluses,
		M:              res.M,
		Z:              res.Z,
		Iterations:     len(res.Iterations),
		PackageSize:    res.PackageSize(),
		Package:        res.packageTuples(),
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
	if st := res.Stop(); st != milp.StopComplete {
		out.Stop = st.String()
	}
	if res.Sketch != nil {
		out.Sketch = &client.SketchInfo{
			Groups:     res.Sketch.Groups,
			Shards:     res.Sketch.Shards,
			Candidates: res.Sketch.Candidates,
			FellBack:   res.Sketch.FellBack,
		}
	}
	return out
}

// errToWire maps an engine/evaluation error to the v1 error contract.
// Deterministic infeasibility gets its own stable code: it is a property of
// the problem, which callers must distinguish from a server fault.
func errToWire(err error) *client.Error {
	switch {
	case errors.Is(err, ErrTenantQuota):
		// Checked before ErrOverloaded so the finer code wins if both are in
		// a chain: "my lane is full" is actionable per-tenant backpressure,
		// "the server is full" calls for global backoff.
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
	default:
		return &client.Error{Code: client.CodeInternal, Message: err.Error(), HTTPStatus: 500}
	}
}

// Submit starts one query evaluation and returns its Job. The request is
// prepared synchronously (so malformed submissions fail fast with
// ErrBadQuery) and looked up in the result cache: a hit returns a job born
// succeeded, which never counts against MaxJobs and never runs. A miss
// evaluates on the job's own goroutine, under the same admission control as
// synchronous queries. At most Options.MaxJobs jobs may be active at once;
// beyond that Submit fails with ErrOverloaded.
func (e *Engine) Submit(req Request) (*Job, error) {
	// Counted once per request on every outcome, as Engine.Query does, so
	// the queries total means "requests received" on both entry points.
	e.m.inc(statQueries)
	created := time.Now()
	tr := e.startTrace(req.TraceParent)
	root := tr.Root()
	pr := new(prepared)
	if err := e.prepare(root, req, pr); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:      fmt.Sprintf("q-%d", e.jobSeq.Add(1)),
		query:   req.Query,
		method:  strings.ToLower(req.Method),
		created: created,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   client.JobQueued,
		changed: make(chan struct{}),
		trace:   tr,
	}
	root.SetAttr("job", j.id)

	if res := e.lookup(root, pr); res != nil {
		// Settled before it is published: no poller ever sees it queued.
		e.m.inc(statJobsSubmitted)
		e.settle(j, res, nil, time.Since(created))
		e.jobsMu.Lock()
		e.jobsByID[j.id] = j
		e.jobList = append(e.jobList, j)
		e.retireLocked()
		e.jobsMu.Unlock()
		e.release(j)
		return j, nil
	}

	e.jobsMu.Lock()
	if len(e.jobList)-e.jobFinished >= e.opts.MaxJobs {
		e.jobsMu.Unlock()
		cancel()
		e.sched.refuse(req.Tenant)
		return nil, ErrOverloaded
	}
	e.jobsByID[j.id] = j
	e.jobList = append(e.jobList, j)
	e.jobsMu.Unlock()
	e.m.inc(statJobsSubmitted)

	go e.runJob(ctx, j, pr)
	return j, nil
}

// runJob evaluates the job's prepared request and finalizes the job.
func (e *Engine) runJob(ctx context.Context, j *Job, pr *prepared) {
	pr.req.onAdmit = func() {
		e.m.add(statJobsRunning, 1)
		j.mu.Lock()
		j.state = client.JobRunning
		j.started = time.Now()
		j.bump()
		j.mu.Unlock()
	}
	userProgress := pr.req.Progress
	pr.req.Progress = func(p core.Progress) {
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
				e.m.inc(statFailures)
			}
		}()
		// A job cancelled while still queued must not complete.
		if err = ctx.Err(); err != nil {
			return
		}
		start := time.Now()
		res, err = e.evaluate(obs.ContextWithSpan(ctx, j.trace.Root()), pr)
		solve = time.Since(start)
	}()

	e.settle(j, res, err, solve)
	// Bound the finished-job history before closing done, so a waiter on
	// Done() sees the job fully accounted: history trimmed, evictions
	// counted.
	e.jobsMu.Lock()
	e.retireLocked()
	e.jobsMu.Unlock()
	e.release(j)
}

// settle moves a job to its terminal state from its evaluation's outcome
// and renders the wire result and trace once. A deadline that cut the
// evaluation after a feasible package was validated arrives here as a
// degraded Result, the same one Engine.Query returns. Every terminal state
// drops the package vector and its pinned relation: a failed or cancelled
// job keeps its best package as rendered here. The O(N) renderings happen
// outside j.mu (see Snapshot).
func (e *Engine) settle(j *Job, res *Result, err error, solve time.Duration) {
	root := j.trace.Root()
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()

	var wire *client.QueryResult
	var bestPkg []client.PackageTuple
	if err == nil {
		wire = resultToWire(res, solve)
	} else {
		j.mu.Lock()
		bestX, bestRel := j.bestX, j.bestRel
		j.mu.Unlock()
		if bestX != nil {
			bestPkg = packageOf(bestX, bestRel)
		}
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == client.JobRunning {
		e.m.add(statJobsRunning, -1)
	}
	j.finished = time.Now()
	if !j.cancelAt.IsZero() {
		e.m.cancelLatency.Observe(j.finished.Sub(j.cancelAt).Seconds())
	}
	switch {
	case err == nil:
		j.state = client.JobSucceeded
		j.wire = wire
		e.m.inc(statJobsCompleted)
	case j.cancelled && errors.Is(err, context.Canceled):
		j.state = client.JobCancelled
		j.err = &client.Error{Code: client.CodeCancelled, Message: "job cancelled by caller", HTTPStatus: 504}
		e.m.inc(statJobsCancelled)
	default:
		j.state = client.JobFailed
		j.err = errToWire(err)
		e.m.inc(statJobsCompleted)
	}
	j.bestX, j.bestRel, j.bestPkg = nil, nil, bestPkg
	j.bump()
}

// retireLocked counts one more finished job and evicts the oldest terminal
// ones beyond Options.JobHistory. Callers hold e.jobsMu.
func (e *Engine) retireLocked() {
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
				e.m.inc(statJobsEvicted)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
}

// release wakes the job's waiters, frees its context, and logs it when it
// was slow.
func (e *Engine) release(j *Job) {
	close(j.done)
	j.cancel() // release the context's resources
	e.maybeLogSlow(j.trace, j.query, j.method, j.finished.Sub(j.created))
}

// observe folds one core progress report into the job's event log and
// best-so-far package. Reports may arrive concurrently (sketch shards). A
// report whose X is a package of the query becomes the best-so-far exactly
// when it improved its evaluation's incumbent: the one evaluation whose
// packages are the query's (a direct solve, or the sketch's refine or
// fallback) keeps that incumbent, and returns it.
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
	if p.Improved && queryPackage {
		j.bestFeas, j.bestObj = p.Feasible, p.Objective
		j.bestX, j.bestRel = p.X, p.Rel
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
