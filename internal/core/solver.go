package core

import (
	"context"
	"fmt"
	"strings"

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
	// Name is the solver's method name (the engine's "method").
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

// SolverByName resolves a method name to a builtin Solver: SummarySearch
// (also the empty string's default) or Naive.
func SolverByName(name string) (Solver, error) {
	switch strings.ToLower(name) {
	case "", "summarysearch":
		return SummarySearchSolver, nil
	case "naive":
		return NaiveSolver, nil
	}
	return nil, fmt.Errorf("core: unknown solver %q", name)
}
