package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"spq/internal/translate"
)

// Solver is the seam between problem producers (the execution engine, the
// sketch pipeline) and the algorithms that solve a canonical stochastic ILP.
// Implementations must be stateless and safe for concurrent use: one Solver
// value is shared by every shard of a partition-parallel sketch and every
// in-flight engine query. Parallelism inside one solve (sharded
// validation, the parallel branch-and-bound of package milp) is set by
// Options.Parallelism and stays behind this interface.
type Solver interface {
	// Name is the solver's registry name (the engine's "method").
	Name() string
	// Solve evaluates the problem and returns the package. Cancellation of
	// ctx aborts the evaluation promptly and returns ctx's error.
	Solve(ctx context.Context, silp *translate.SILP, opts *Options) (*Solution, error)
}

type summarySearchSolver struct{}

func (summarySearchSolver) Name() string { return "summarysearch" }
func (summarySearchSolver) Solve(ctx context.Context, silp *translate.SILP, opts *Options) (*Solution, error) {
	return SummarySearchCtx(ctx, silp, opts)
}

type naiveSolver struct{}

func (naiveSolver) Name() string { return "naive" }
func (naiveSolver) Solve(ctx context.Context, silp *translate.SILP, opts *Options) (*Solution, error) {
	return NaiveCtx(ctx, silp, opts)
}

// SummarySearchSolver is the MILP-backed CSA path (Algorithm 2 + CSA-Solve),
// the system default.
var SummarySearchSolver Solver = summarySearchSolver{}

// NaiveSolver is the SAA baseline (Algorithm 1).
var NaiveSolver Solver = naiveSolver{}

// The process-wide registry of non-builtin solvers (RegisterSolver). A
// coordinator daemon registers its remote solver here at startup so the
// engine's method dispatch resolves "remote" like any builtin.
var (
	solverRegMu sync.RWMutex
	solverReg   = map[string]Solver{}
)

// RegisterSolver makes s resolvable through SolverByName under its
// (lowercased) Name. Builtin names — "summarysearch", "naive", and the
// engine-reserved "sketch" — cannot be taken; registering the same name
// again replaces the earlier solver (a daemon re-configuring its worker
// pool).
func RegisterSolver(s Solver) error {
	if s == nil {
		return fmt.Errorf("core: RegisterSolver(nil)")
	}
	name := strings.ToLower(s.Name())
	switch name {
	case "", "summarysearch", "naive", "sketch":
		return fmt.Errorf("core: cannot register solver under reserved name %q", name)
	}
	solverRegMu.Lock()
	defer solverRegMu.Unlock()
	solverReg[name] = s
	return nil
}

// CacheKeyer is an optional Solver interface. A solver whose results are
// bit-identical to another named solver's — the remote solver dispatching
// an inner method is the canonical case — reports that solver's name here,
// and result-cache keys use it instead of Name(). Heterogeneously
// configured fleet nodes (one solving locally, one dispatching) then derive
// the same cache key for the same computation, which keeps replicated
// entries shareable.
type CacheKeyer interface {
	// CacheKeyName returns the canonical name of the computation the
	// solver performs.
	CacheKeyName() string
}

// SolverCacheKey returns the name a result cache should key s under:
// CacheKeyName when implemented, Name otherwise.
func SolverCacheKey(s Solver) string {
	if ck, ok := s.(CacheKeyer); ok {
		return ck.CacheKeyName()
	}
	return s.Name()
}

// SolverByName resolves a method name to a Solver: the builtins
// (SummarySearch — also the empty string's default — and Naive), then any
// solver added via RegisterSolver.
func SolverByName(name string) (Solver, error) {
	switch strings.ToLower(name) {
	case "", "summarysearch":
		return SummarySearchSolver, nil
	case "naive":
		return NaiveSolver, nil
	}
	solverRegMu.RLock()
	s, ok := solverReg[strings.ToLower(name)]
	solverRegMu.RUnlock()
	if ok {
		return s, nil
	}
	return nil, fmt.Errorf("core: unknown solver %q", name)
}
