package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"spq/internal/milp"
)

// assertSameAnswer compares what an evaluation returns to its reference bit
// for bit: package, objective, surpluses and ε′.
func assertSameAnswer(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	same := got.Feasible == want.Feasible && sameBits(got.Objective, want.Objective) &&
		sameBits(got.EpsUpper, want.EpsUpper) && len(got.X) == len(want.X) &&
		len(got.Surpluses) == len(want.Surpluses) && got.M == want.M && got.Z == want.Z
	for i := 0; same && i < len(want.X); i++ {
		same = sameBits(got.X[i], want.X[i])
	}
	for k := 0; same && k < len(want.Surpluses); k++ {
		same = sameBits(got.Surpluses[k], want.Surpluses[k])
	}
	if !same {
		t.Fatalf("%s: %+v, want %+v", label, got, want)
	}
}

// TestPlanMemoBitIdentical: evaluations sharing one SILP, as the plan cache
// shares it, answer bit for bit as on a freshly built SILP; from the second
// on, x(0) comes from the memo, so each runs exactly one MILP solve fewer.
func TestPlanMemoBitIdentical(t *testing.T) {
	shared := portfolioSILP(t, 15, easyQuery)
	for seed := uint64(1); seed <= 3; seed++ {
		got, err := SummarySearchCtx(context.Background(), shared, smallOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := SummarySearchCtx(context.Background(), portfolioSILP(t, 15, easyQuery), smallOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d", seed)
		assertSameAnswer(t, label, got, want)
		solves := want.MILPSolves
		if seed > 1 {
			solves-- // x(0) from the memo
		}
		if got.MILPSolves != solves {
			t.Fatalf("%s: %d MILP solves on the shared SILP, %d on a fresh one", label, got.MILPSolves, want.MILPSolves)
		}
	}
}

// TestPlanMemoSkipsUnfinishedSolves: an x(0) solve cut short — by a node cap
// that ends it before optimality, or by cancellation — memoises nothing, and
// the full solve afterwards does. (The cut-short probe is
// TestProbeCancellation's.)
func TestPlanMemoSkipsUnfinishedSolves(t *testing.T) {
	silp := portfolioSILP(t, 15, easyQuery)
	model, _ := silp.FormulateUnconstrained()
	if res, err := milp.Solve(model, &milp.Options{MaxNodes: 1}); err != nil || res.Status == milp.StatusOptimal {
		t.Fatalf("x(0) at one node: %v, %v; the test needs a tree", res.Status, err)
	}
	capped := smallOptions(1)
	capped.SolverNodes = 1
	r := newRunner(context.Background(), silp, capped)
	_, _ = r.solveUnconstrained() // one node ends it short of optimal, with a package or without
	if x := silp.X0(1, r.opts.RelGap); x != nil {
		t.Fatalf("a node-capped x(0) was memoised: %v", x)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r = newRunner(ctx, silp, smallOptions(1))
	if _, err := r.solveUnconstrained(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled x(0): err = %v, want context.Canceled", err)
	}
	if x := silp.X0(r.opts.SolverNodes, r.opts.RelGap); x != nil {
		t.Fatalf("a cancelled x(0) was memoised: %v", x)
	}

	r = newRunner(context.Background(), silp, smallOptions(1))
	x, err := r.solveUnconstrained()
	if err != nil {
		t.Fatal(err)
	}
	if memo := silp.X0(r.opts.SolverNodes, r.opts.RelGap); memo == nil || &memo[0] != &x[0] {
		t.Fatal("an optimal x(0) was not memoised")
	}
}

// TestPlanMemoConcurrent: queries running at once on one SILP (run under
// -race) race for its memo and still answer like a fresh SILP each.
func TestPlanMemoConcurrent(t *testing.T) {
	want := map[uint64]*Solution{}
	for seed := uint64(1); seed <= 3; seed++ {
		sol, err := SummarySearch(portfolioSILP(t, 12, easyQuery), smallOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = sol
	}
	shared := portfolioSILP(t, 12, easyQuery)
	got := make([]*Solution, 9)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := smallOptions(uint64(1 + i%3))
			opts.Parallelism = 1 + i%2
			got[i], errs[i] = SummarySearchCtx(context.Background(), shared, opts)
		}(i)
	}
	wg.Wait()
	for i, sol := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSameAnswer(t, fmt.Sprintf("query %d", i), sol, want[uint64(1+i%3)])
	}
}

// TestPlanMemoX0Bounded: a client varying the node budget cannot grow a plan:
// each new budget's x(0) replaces the last, so one stays memoised.
func TestPlanMemoX0Bounded(t *testing.T) {
	silp := portfolioSILP(t, 6, easyQuery)
	for nodes := 1000; nodes < 1100; nodes++ {
		o := smallOptions(1)
		o.SolverNodes = nodes
		r := newRunner(context.Background(), silp, o)
		if _, err := r.solveUnconstrained(); err != nil {
			t.Fatal(err)
		}
		if silp.X0(nodes, r.opts.RelGap) == nil {
			t.Fatalf("budget %d: x(0) not memoised", nodes)
		}
		if nodes > 1000 && silp.X0(nodes-1, r.opts.RelGap) != nil {
			t.Fatalf("budget %d: the x(0) of budget %d is still memoised", nodes, nodes-1)
		}
	}
}
