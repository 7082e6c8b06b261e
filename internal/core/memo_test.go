package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"spq/client"
	"spq/internal/milp"
	"spq/internal/obs"
	"spq/internal/translate"
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

// TestPlanMemoConcurrent: queries and stand-alone validations running at once
// on one SILP (run under -race) race for its memo — x(0), the probe and the
// verdicts — and still answer like a fresh SILP each.
func TestPlanMemoConcurrent(t *testing.T) {
	want := map[uint64]*Solution{}
	wantVal := map[uint64]*Validation{}
	for seed := uint64(1); seed <= 3; seed++ {
		fresh := portfolioSILP(t, 12, easyQuery)
		sol, err := SummarySearch(fresh, smallOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = sol
		if wantVal[seed], err = Validate(context.Background(), fresh, sol.X, smallOptions(seed)); err != nil {
			t.Fatal(err)
		}
	}
	shared := portfolioSILP(t, 12, easyQuery)
	got := make([]*Solution, 9)
	vals := make([]*Validation, len(got))
	errs := make([]error, 2*len(got))
	var wg sync.WaitGroup
	for i := range got {
		seed := uint64(1 + i%3)
		opts := smallOptions(seed)
		opts.Parallelism = 1 + i%2
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i], errs[2*i] = SummarySearchCtx(context.Background(), shared, opts)
		}()
		go func() {
			defer wg.Done()
			vals[i], errs[2*i+1] = Validate(context.Background(), shared, want[seed].X, opts)
		}()
	}
	wg.Wait()
	for i, sol := range got {
		if errs[2*i] != nil || errs[2*i+1] != nil {
			t.Fatal(errs[2*i], errs[2*i+1])
		}
		seed := uint64(1 + i%3)
		assertSameAnswer(t, fmt.Sprintf("query %d", i), sol, want[seed])
		assertSameVerdict(t, fmt.Sprintf("validation %d", i), vals[i], wantVal[seed])
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

// assertSameVerdict compares two validation verdicts bit for bit.
func assertSameVerdict(t *testing.T, label string, got, want *Validation) {
	t.Helper()
	same := got.Feasible == want.Feasible && sameBits(got.Objective, want.Objective) &&
		sameBits(got.EpsUpper, want.EpsUpper) && len(got.Surpluses) == len(want.Surpluses) &&
		len(got.CIHalf) == len(want.CIHalf)
	for k := 0; same && k < len(want.Surpluses); k++ {
		same = sameBits(got.Surpluses[k], want.Surpluses[k]) && sameBits(got.CIHalf[k], want.CIHalf[k])
	}
	if !same {
		t.Fatalf("%s: verdict %+v, want %+v", label, got, want)
	}
}

// validateTraced validates x under a fresh trace and reports whether the
// verdict came from the SILP's memo: a "memo" span of kind validate and no
// "validate" span.
func validateTraced(t *testing.T, ctx context.Context, silp *translate.SILP, x []float64, o *Options) (*Validation, bool, error) {
	t.Helper()
	tr := obs.NewTrace("", "test")
	val, err := Validate(obs.ContextWithSpan(ctx, tr.Root()), silp, x, o)
	tr.Root().End()
	memos, runs := 0, 0
	tr.Data().Walk(func(d *client.TraceSpan) {
		switch {
		case d.Name == "memo" && d.Attrs["kind"] == "validate":
			memos++
		case d.Name == "validate":
			runs++
		}
	})
	if memos+runs != 1 && err == nil {
		t.Fatalf("%d memo and %d validate spans for one validation", memos, runs)
	}
	return val, memos == 1, err
}

// TestVerdictMemoBitIdentical: on every golden case, a second evaluation on
// the shared SILP takes each verdict from the memo, answers as the first, and
// every verdict it used equals the one a fresh SILP computes, bit for bit.
func TestVerdictMemoBitIdentical(t *testing.T) {
	for _, gc := range summarySearchGolden {
		shared := gc.silp(t)
		first, err := SummarySearch(shared, gc.opts())
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		var reports []Progress
		opts := gc.opts()
		opts.Parallelism = 2
		opts.Progress = func(p Progress) {
			p.X = append([]float64(nil), p.X...)
			reports = append(reports, p)
		}
		second, err := SummarySearch(shared, opts)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		assertSameAnswer(t, gc.name, second, first)
		if len(reports) == 0 {
			t.Fatalf("%s: no validated package reported", gc.name)
		}
		for k, r := range reports {
			label := fmt.Sprintf("%s: package %d", gc.name, k)
			memo, hit, err := validateTraced(t, context.Background(), shared, r.X, gc.opts())
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatalf("%s: no memoised verdict after two evaluations", label)
			}
			fresh, err := Validate(context.Background(), gc.silp(t), r.X, gc.opts())
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerdict(t, label, memo, fresh)
			if r.Feasible != fresh.Feasible || !sameBits(r.Objective, fresh.Objective) || !sameBits(r.EpsUpper, fresh.EpsUpper) {
				t.Fatalf("%s: the evaluation used %+v, a fresh SILP answers %+v", label, r, fresh)
			}
		}
	}
}

// TestVerdictMemoKeys: a verdict is memoised per validation seed, M̂ and
// package, multiplicities included; any of them changed misses, and what it
// then computes equals a fresh SILP's verdict.
func TestVerdictMemoKeys(t *testing.T) {
	shared := portfolioSILP(t, 15, easyQuery)
	x := make([]float64, shared.N)
	x[3], x[9] = 1, 2
	base := smallOptions(1)
	if _, hit, err := validateTraced(t, context.Background(), shared, x, base); err != nil || hit {
		t.Fatalf("first validation: hit %t, err %v", hit, err)
	}
	if _, hit, err := validateTraced(t, context.Background(), shared, x, base); err != nil || !hit {
		t.Fatalf("repeat validation: hit %t, err %v", hit, err)
	}
	seed, m := smallOptions(1), smallOptions(1)
	seed.ValidationSeed = 77
	m.ValidationM = base.ValidationM + 1
	twice := append([]float64(nil), x...)
	twice[3] = 2
	for _, c := range []struct {
		label string
		x     []float64
		o     *Options
	}{{"ValidationSeed", x, seed}, {"ValidationM", x, m}, {"multiplicity", twice, base}} {
		got, hit, err := validateTraced(t, context.Background(), shared, c.x, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("another %s hit the memo", c.label)
		}
		want, err := Validate(context.Background(), portfolioSILP(t, 15, easyQuery), c.x, c.o)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVerdict(t, c.label, got, want)
	}
}

// TestVerdictMemoSkipsCancelled: a validation cancelled before it finishes
// memoises nothing; the next one runs and answers like a fresh SILP.
func TestVerdictMemoSkipsCancelled(t *testing.T) {
	shared := portfolioSILP(t, 15, easyQuery)
	x := make([]float64, shared.N)
	x[4], x[11] = 1, 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := validateTraced(t, ctx, shared, x, smallOptions(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled validation: err = %v, want context.Canceled", err)
	}
	got, hit, err := validateTraced(t, context.Background(), shared, x, smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a cancelled validation was memoised")
	}
	want, err := Validate(context.Background(), portfolioSILP(t, 15, easyQuery), x, smallOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	assertSameVerdict(t, "after cancellation", got, want)
}
