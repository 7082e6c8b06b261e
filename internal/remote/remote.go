// Package remote implements core.Solver over the v1 HTTP API: a Solver
// that ships sub-problems to a pool of worker spqd daemons as ordinary
// async jobs, turning the sketch pipeline's shard fan-out (and any direct
// method="remote" query) into multi-node scale-out.
//
// The design leans entirely on two properties earlier layers already
// guarantee:
//
//   - Evaluation is a pure function of (query, options, relation). A worker
//     holding the same relation — spqd fleets load workloads from shared
//     seeds — that rebuilds the coordinator's exact sub-problem returns the
//     bit-identical solution the coordinator would have computed locally.
//     The wire carries the full determinism domain: canonical query text,
//     every result-relevant option (client.SolveOptions), and a
//     client.SolveSpec naming the view's base-relation tuple subset plus
//     the post-translation variable-bound overrides.
//   - Because remote ≡ local, failure handling is trivial: any dispatch
//     failure falls back to the local solver and the answer cannot change.
//     Worker loss degrades throughput, never correctness.
//
// Dispatch is deterministic too: each sub-problem's node-independent key
// (SubKey — canonical query ⊕ options ⊕ spec) is rendezvous-hashed over the
// healthy workers, so a fleet of coordinators sends identical sub-problems
// to the same worker, where its result cache answers repeats without
// solving. Failing workers enter exponential backoff and their share
// redistributes; a bounded in-flight semaphore keeps a wide shard fan-out
// from opening unbounded connections. Streamed worker progress events are
// forwarded into core.Options.Progress (phase labels are applied by the
// caller, e.g. the sketch pipeline's "sketch/shard<i>" wrapper), so a
// coordinator job's observers see remote sub-solves exactly like local
// ones.
//
// New constructs the solver; registering it under SolverByName("remote")
// is the caller's choice (cmd/spqd does it when -workers is set).
package remote

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/obs"
	"spq/internal/translate"
)

// Options configure a Solver.
type Options struct {
	// Workers are the base URLs of the worker spqd daemons (e.g.
	// "http://w1:8723"). Empty means every Solve runs locally — a pool of
	// zero is the identity configuration.
	Workers []string
	// Local evaluates sub-problems when no worker can (pool empty, all
	// workers down, dispatch failure) — and is the reference the remote
	// path must match bit-for-bit. Default core.SummarySearchSolver.
	Local core.Solver
	// Inner is the method workers run ("" = summarysearch). It must be a
	// method the workers resolve locally; dispatching "remote" to a worker
	// that registered its own remote solver is rejected by New to keep
	// topologies acyclic.
	Inner string
	// MaxInFlight bounds concurrent remote dispatches across all workers
	// (default 4 per worker). Excess sub-solves wait for a slot.
	MaxInFlight int
	// NoFallback disables the default failure handling (re-solving locally
	// after a worker failure): when set, the worker's error surfaces with
	// its stable code preserved — fail-fast for operators who would rather
	// see the fleet problem than burn coordinator CPU.
	NoFallback bool
	// FailureBackoff is the initial per-worker backoff after a failure,
	// doubling per consecutive failure up to MaxBackoff (defaults 2s / 60s).
	FailureBackoff time.Duration
	MaxBackoff     time.Duration
	// HTTPClient overrides the transport (tests, timeouts).
	HTTPClient *http.Client
	// Logf, when non-nil, receives one line per worker state change and
	// fallback (e.g. log.Printf).
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the solver's counters; the engine
// folds it into GET /stats.
type Stats struct {
	// Dispatched counts sub-solves sent to workers (successful or not);
	// Fallbacks counts local re-solves (dispatch failure, no healthy
	// worker, or an empty pool does not count); Failures counts observed
	// worker dispatch failures.
	Dispatched int64
	Fallbacks  int64
	Failures   int64
	// WorkersDown is the number of workers currently in failure backoff.
	WorkersDown int
}

// worker is one pool member with its health state (guarded by Solver.mu).
type worker struct {
	url    string
	client *client.Client

	fails     int
	downUntil time.Time
}

// Solver dispatches sub-problems to worker spqds; it implements
// core.Solver and is safe for concurrent use (one value is shared by every
// shard of a sketch fan-out).
type Solver struct {
	opts    Options
	local   core.Solver
	workers []*worker
	sem     chan struct{}

	mu sync.Mutex // guards worker health state

	dispatched atomic.Int64
	fallbacks  atomic.Int64
	failures   atomic.Int64
}

// New builds a Solver. An empty worker list is valid (pure-local identity
// configuration).
func New(o Options) (*Solver, error) {
	if o.Local == nil {
		o.Local = core.SummarySearchSolver
	}
	if o.Inner == "remote" {
		return nil, errors.New("remote: inner method cannot be \"remote\" (acyclic topologies only)")
	}
	if o.FailureBackoff <= 0 {
		o.FailureBackoff = 2 * time.Second
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 60 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * len(o.Workers)
		if o.MaxInFlight == 0 {
			o.MaxInFlight = 1
		}
	}
	s := &Solver{opts: o, local: o.Local, sem: make(chan struct{}, o.MaxInFlight)}
	copts := []client.Option{}
	if o.HTTPClient != nil {
		copts = append(copts, client.WithHTTPClient(o.HTTPClient))
	}
	// Short poll interval: sub-solves are small and shard merges wait on
	// the slowest one, so snappy terminal detection matters more than a few
	// extra long-poll round trips.
	copts = append(copts, client.WithPollInterval(500*time.Millisecond))
	for _, u := range o.Workers {
		c, err := client.New(u, copts...)
		if err != nil {
			return nil, fmt.Errorf("remote: worker %q: %w", u, err)
		}
		s.workers = append(s.workers, &worker{url: u, client: c})
	}
	return s, nil
}

// Name implements core.Solver; the registry name is "remote".
func (s *Solver) Name() string { return "remote" }

// CacheKeyName implements core.CacheKeyer: remote solving is bit-identical
// to the inner method solved locally, so result caches key it as that
// method — a coordinator and a plain peer derive the same key for the same
// computation.
func (s *Solver) CacheKeyName() string {
	inner, err := core.SolverByName(s.opts.Inner)
	if err != nil {
		return s.opts.Inner // unknown inner: key conservatively by its raw name
	}
	return core.SolverCacheKey(inner)
}

// Stats snapshots the solver's counters.
func (s *Solver) Stats() Stats {
	st := Stats{
		Dispatched: s.dispatched.Load(),
		Fallbacks:  s.fallbacks.Load(),
		Failures:   s.failures.Load(),
	}
	now := time.Now()
	s.mu.Lock()
	for _, w := range s.workers {
		if now.Before(w.downUntil) {
			st.WorkersDown++
		}
	}
	s.mu.Unlock()
	return st
}

// pick rendezvous-hashes the sub-problem key over the healthy workers:
// every worker scores hash(worker URL, key) and the maximum wins. Identical
// sub-problems land on the same worker (from any coordinator), so worker
// result caches see repeats; when a worker is down its keys redistribute
// over the rest without moving anyone else's assignment — the standard
// highest-random-weight property. Returns nil when no worker is healthy.
func (s *Solver) pick(key string) *worker {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *worker
	var bestScore uint64
	for _, w := range s.workers {
		if now.Before(w.downUntil) {
			continue
		}
		score := fnv64a(w.url + "\x00" + key)
		if best == nil || score > bestScore || (score == bestScore && w.url < best.url) {
			best, bestScore = w, score
		}
	}
	return best
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// noteFailure puts the worker into (exponentially growing) backoff.
func (s *Solver) noteFailure(w *worker, err error) {
	s.failures.Add(1)
	s.mu.Lock()
	w.fails++
	backoff := s.opts.FailureBackoff << (w.fails - 1)
	if backoff > s.opts.MaxBackoff || backoff <= 0 {
		backoff = s.opts.MaxBackoff
	}
	w.downUntil = time.Now().Add(backoff)
	fails := w.fails
	s.mu.Unlock()
	s.logf("remote: worker %s failed (consecutive %d, backoff %s): %v", w.url, fails, backoff, err)
}

// noteSuccess clears the worker's failure state.
func (s *Solver) noteSuccess(w *worker) {
	s.mu.Lock()
	if w.fails > 0 {
		s.logf("remote: worker %s recovered", w.url)
	}
	w.fails = 0
	w.downUntil = time.Time{}
	s.mu.Unlock()
}

func (s *Solver) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// errInfeasibleRemote wraps a worker-reported infeasibility so callers'
// errors.Is(err, core.ErrInfeasible) checks work across the dispatch
// boundary (the sketch pipeline treats infeasible shards as "contributes no
// candidates", not as failures).
type errInfeasibleRemote struct{ url string }

func (e errInfeasibleRemote) Error() string {
	return fmt.Sprintf("remote: worker %s: %v", e.url, core.ErrInfeasible)
}
func (e errInfeasibleRemote) Unwrap() error { return core.ErrInfeasible }

// Solve implements core.Solver: rendezvous-pick a worker, ship the
// sub-problem as a v1 job, stream progress back, and reconstruct the
// bit-identical solution — or fall back to the local solver so the answer
// never depends on fleet health. Context cancellation aborts the remote job
// and returns promptly without fallback.
func (s *Solver) Solve(ctx context.Context, silp *translate.SILP, opts *core.Options) (*core.Solution, error) {
	if len(s.workers) == 0 {
		return s.local.Solve(ctx, silp, opts)
	}

	spec := SolveSpecFor(silp)
	key := SubKey(silp, opts, spec)
	w := s.pick(key)
	if w == nil {
		s.fallbacks.Add(1)
		s.logf("remote: no healthy worker for sub-solve, solving locally")
		return s.local.Solve(ctx, silp, opts)
	}

	// Bounded in-flight dispatch: a 64-shard sketch against a 2-worker pool
	// must not open 64 concurrent jobs.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()

	s.dispatched.Add(1)
	sol, err := s.solveOn(ctx, w, silp, opts, spec)
	switch {
	case err == nil:
		s.noteSuccess(w)
		return sol, nil
	case ctx.Err() != nil:
		// The caller aborted; the worker did nothing wrong.
		return nil, ctx.Err()
	case errors.Is(err, core.ErrInfeasible):
		// A property of the sub-problem, not of the worker: the local
		// solver would (deterministically) report the same.
		s.noteSuccess(w)
		return nil, err
	}
	s.noteFailure(w, err)
	if s.opts.NoFallback {
		return nil, err
	}
	s.fallbacks.Add(1)
	s.logf("remote: falling back to local solve after worker failure")
	return s.local.Solve(ctx, silp, opts)
}

// solveOn runs one sub-solve on one worker.
func (s *Solver) solveOn(ctx context.Context, w *worker, silp *translate.SILP, opts *core.Options, spec *client.SolveSpec) (*core.Solution, error) {
	// The dispatch span carries the trace across the fleet: its trace parent
	// travels as the X-Spq-Trace header (observational only — it is NOT part
	// of the sub-problem key, so traced and untraced dispatches still share
	// worker cache entries), and the worker's span tree is grafted under it
	// on completion.
	ds := obs.SpanFromContext(ctx).StartChild("remote/dispatch")
	ds.SetAttr("worker", w.url)
	defer ds.End()

	// No timeout_ms: the request must be byte-stable across dispatches so
	// repeated sub-problems hit the worker's result cache (the worker keys
	// results by its own default timeout; forwarding the coordinator's
	// jittery remaining budget would make every key unique). Coordinator
	// deadlines are enforced by explicit cancellation below, and a worker
	// orphaned by a crashed coordinator is still bounded by its own
	// -timeout.
	req := client.SubmitRequest{
		Query:       silp.Query.String(),
		Method:      s.opts.Inner,
		Options:     ToWireOptions(opts),
		Solve:       spec,
		TraceParent: obs.TraceParent(ds),
	}

	job, err := w.client.Submit(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("remote: submit to %s: %w", w.url, err)
	}

	forward := func(p client.Progress) {
		if opts == nil || opts.Progress == nil {
			return
		}
		// The wire event carries no candidate package; consumers treat a
		// nil X as "report only" (the engine's best-so-far tracking skips
		// it). Phase labels are applied by the caller's wrapper.
		opts.Progress(core.Progress{
			Phase:         p.Phase,
			Iteration:     p.Iteration,
			M:             p.M,
			Z:             p.Z,
			Feasible:      p.Feasible,
			Objective:     p.Objective,
			Maximize:      silp.Maximize,
			Improved:      p.Improved,
			BestFeasible:  p.BestFeasible,
			BestObjective: p.BestObjective,
			Elapsed:       msToDuration(p.ElapsedMS),
		})
	}

	final, err := w.client.Stream(ctx, job.ID, forward)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled or timed out on our side: withdraw the remote job
			// (best effort, off the dead context) and report the context.
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = w.client.Cancel(cctx, job.ID)
			cancel()
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("remote: stream from %s: %w", w.url, err)
	}
	if jerr := final.Err(); jerr != nil {
		var apiErr *client.Error
		if errors.As(jerr, &apiErr) && apiErr.Code == client.CodeInfeasible {
			return nil, errInfeasibleRemote{url: w.url}
		}
		// Preserve the worker's structured error (stable code included) in
		// the chain, so a no-fallback coordinator surfaces it end-to-end.
		return nil, fmt.Errorf("remote: worker %s: %w", w.url, jerr)
	}
	if final.Result == nil || final.Result.Raw == nil {
		return nil, fmt.Errorf("remote: worker %s returned no raw solution (is it running an older build?)", w.url)
	}
	sol, err := FromWireSolution(final.Result.Raw, silp.Rel.N())
	if err != nil {
		return nil, fmt.Errorf("remote: worker %s: %w", w.url, err)
	}
	ds.AttachRemote(final.Trace)
	return sol, nil
}
