package remote

import (
	"fmt"
	"math"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/milp"
	"spq/internal/translate"
)

// This file is the mapping between core.Solution and the v1 wire's raw
// SolveResult, shared by both ends of a sub-solve dispatch: the worker-side
// engine renders its solution with ToWireSolution, the coordinator-side
// Solver reconstructs it with FromWireSolution, and the replicated result
// cache ships the same payload between peers. Float64 fields round-trip
// exactly through encoding/json (Go emits the shortest representation that
// parses back to the same bits), which is what makes remote solving
// bit-identical to local. The round trip reproduces every field except
// these, which are not carried: TotalTime travels at millisecond
// resolution, each iteration's SolveTime and ValidateTime are dropped, and
// so are Warm and WarmResolve (process-local warm-start state).

// ToWireSolution renders a solution as the raw v1 payload.
func ToWireSolution(sol *core.Solution) *client.SolveResult {
	out := &client.SolveResult{
		Feasible:      sol.Feasible,
		Objective:     sol.Objective,
		Surpluses:     sol.Surpluses,
		SurplusCIHalf: sol.SurplusCIHalf,
		M:             sol.M,
		Z:             sol.Z,
		X:             sol.X,
		SolveTotals:   sol.SolveTotals,
		TotalMS:       sol.TotalTime.Milliseconds(),
	}
	if math.IsInf(sol.EpsUpper, 1) {
		out.EpsUpperInf = true
	} else if !math.IsNaN(sol.EpsUpper) {
		out.EpsUpper = sol.EpsUpper
	}
	for _, it := range sol.Iterations {
		out.Iterations = append(out.Iterations, client.SolveIteration{
			M:            it.M,
			Z:            it.Z,
			Status:       int(it.SolverStatus),
			Coefficients: it.Coefficients,
			SolveWork:    it.SolveWork,
			Feasible:     it.Feasible,
			Objective:    it.Objective,
			Surpluses:    it.Surpluses,
		})
	}
	return out
}

// FromWireSolution reconstructs a core.Solution from the raw payload. n is
// the expected length of X (the solved view's row count); a mismatched
// package is a protocol error, not something to guess around. The rebuilt
// history has zero durations and TotalTime reports the worker's wall clock
// (see above for what else is not carried).
func FromWireSolution(sr *client.SolveResult, n int) (*core.Solution, error) {
	if sr == nil {
		return nil, fmt.Errorf("remote: missing raw solution payload")
	}
	if sr.X != nil && len(sr.X) != n {
		return nil, fmt.Errorf("remote: raw solution has %d multiplicities, want %d", len(sr.X), n)
	}
	sol := &core.Solution{
		X:             sr.X,
		Feasible:      sr.Feasible,
		Objective:     sr.Objective,
		EpsUpper:      sr.EpsUpper,
		Surpluses:     sr.Surpluses,
		SurplusCIHalf: sr.SurplusCIHalf,
		M:             sr.M,
		Z:             sr.Z,
		SolveTotals:   sr.SolveTotals,
		TotalTime:     msToDuration(sr.TotalMS),
	}
	if sr.EpsUpperInf {
		sol.EpsUpper = math.Inf(1)
	}
	for _, it := range sr.Iterations {
		sol.Iterations = append(sol.Iterations, core.Iteration{
			M:            it.M,
			Z:            it.Z,
			SolverStatus: milp.Status(it.Status),
			Coefficients: it.Coefficients,
			SolveWork:    it.SolveWork,
			Feasible:     it.Feasible,
			Objective:    it.Objective,
			Surpluses:    it.Surpluses,
		})
	}
	return sol, nil
}

// ToWireOptions maps the result-relevant evaluation options onto the v1
// request type. Parallelism is deliberately dropped: it is bit-identical by
// construction, and the worker should size its own pools for its own
// hardware. Progress is a callback and cannot travel; the dispatch streams
// the worker's progress events back instead. An infinite Epsilon maps to the
// zero value, which defaults back to +Inf on the worker.
func ToWireOptions(opts *core.Options) *client.SolveOptions {
	if opts == nil {
		return nil
	}
	out := &client.SolveOptions{
		Seed:                opts.Seed,
		ValidationSeed:      opts.ValidationSeed,
		ValidationM:         opts.ValidationM,
		InitialM:            opts.InitialM,
		IncrementM:          opts.IncrementM,
		MaxM:                opts.MaxM,
		FixedZ:              opts.FixedZ,
		IncrementZ:          opts.IncrementZ,
		MaxCSAIters:         opts.MaxCSAIters,
		DisableAcceleration: opts.DisableAcceleration,
		TimeLimitMS:         opts.TimeLimit.Milliseconds(),
		SolverTimeMS:        opts.SolverTime.Milliseconds(),
		SolverNodes:         opts.SolverNodes,
		RelGap:              opts.RelGap,
	}
	if !math.IsInf(opts.Epsilon, 0) {
		out.Epsilon = opts.Epsilon
	}
	return out
}

// SolveSpecFor renders the problem's view and variable bounds as the wire
// spec a worker needs to rebuild it: the view's base-relation tuple indices
// (strictly ascending by construction — Select preserves order and
// OrigIndex composes through nested views) plus the problem's current
// bounds, which carry any post-translation mutation (the sketch phase's
// medoid-capacity inflation).
func SolveSpecFor(silp *translate.SILP) *client.SolveSpec {
	n := silp.Rel.N()
	spec := &client.SolveSpec{
		Subset: make([]int, n),
		VarHi:  append([]float64(nil), silp.VarHi...),
		VarLo:  append([]float64(nil), silp.VarLo...),
	}
	for i := 0; i < n; i++ {
		spec.Subset[i] = silp.Rel.OrigIndex(i)
	}
	return spec
}

// SubKey is the node-independent key of one sub-solve: canonical query text
// ⊕ canonical options ⊕ canonical solve spec. Every process holding the
// same relation derives the same key for the same sub-problem, which is why
// it can drive both rendezvous worker assignment (this package) and the
// shared result cache (the worker's engine composes the same parts into its
// cache key).
func SubKey(silp *translate.SILP, opts *core.Options, spec *client.SolveSpec) string {
	return silp.Query.String() + "\x1f" + opts.Key() + "\x1f" + spec.Key()
}

func msToDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
