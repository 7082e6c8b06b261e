package core

import (
	"time"

	"spq/internal/relation"
)

// Progress is one per-iteration progress report of an anytime evaluation.
// SummarySearch and Naïve emit one report per *validated* candidate package
// (each optimize/validate round that produced a package), fed from the same
// state the Iteration history records; the sketch pipeline forwards its
// sub-solves' reports with Phase set. Consumers see the algorithm converge
// while it runs: the engine's job manager turns these into the streamed
// progress of the v1 async API.
//
// Improved and Best* read the evaluation's one incumbent, the package it
// returns: BestFeasible never goes from true to false, BestObjective never
// gets worse in the query's sense, and the last report of a solve that
// returns a package describes that package. Each sketch shard, the refine
// and the fallback are evaluations of their own, so their incumbents are
// phase-local.
//
// All slices and the relation are shared with the running evaluation and
// must be treated as read-only.
type Progress struct {
	// Phase labels the pipeline stage for composite evaluations: "" for a
	// direct SummarySearch/Naïve solve; "sketch/shard<i>", "refine", or
	// "fallback" inside the sketch pipeline.
	Phase string
	// Iteration counts optimize/validate rounds so far in this solve,
	// 1-based and monotone within a Phase.
	Iteration int
	// M and Z are the scenario/summary counts of this round (Z is 0 for
	// Naïve).
	M, Z int
	// Feasible, Objective, EpsUpper, and Surpluses are this round's
	// out-of-sample validation verdict (§3.2).
	Feasible  bool
	Objective float64
	EpsUpper  float64
	Surpluses []float64
	// Improved reports whether this round's candidate became the incumbent;
	// BestFeasible/BestObjective describe the incumbent after this round.
	Improved      bool
	BestFeasible  bool
	BestObjective float64
	// X is this round's candidate package, indexed like Rel; Rel is the
	// relation view the evaluation runs over (Rel.OrigIndex maps rows to
	// base-relation tuples, composing through WHERE filters and sketch
	// medoid views).
	X   []float64
	Rel *relation.Relation
	// Elapsed is the wall-clock time since the evaluation started.
	Elapsed time.Duration
}

// offer proposes a validated candidate, the iter-th round's, to the
// evaluation's incumbent under better, and emits the round's progress
// report when a callback is installed.
func (r *runner) offer(iter int, cand *Solution) {
	improved := better(r.silp, cand, r.best)
	if improved {
		r.best = cand
	}
	if r.opts.Progress != nil {
		r.opts.Progress(Progress{
			Iteration:     iter,
			M:             cand.M,
			Z:             cand.Z,
			Feasible:      cand.Feasible,
			Objective:     cand.Objective,
			EpsUpper:      cand.EpsUpper,
			Surpluses:     cand.Surpluses,
			Improved:      improved,
			BestFeasible:  r.best.Feasible,
			BestObjective: r.best.Objective,
			X:             cand.X,
			Rel:           r.silp.Rel,
			Elapsed:       time.Since(r.start),
		})
	}
}
