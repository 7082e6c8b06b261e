package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestParallelValidationBitIdentical asserts the tentpole determinism
// guarantee: sharded validation returns exactly the sequential results for
// any worker count (feasibility, objective, surpluses, CI half-widths).
func TestParallelValidationBitIdentical(t *testing.T) {
	silp := portfolioSILP(t, 20, easyQuery)
	x := make([]float64, silp.N)
	for i := 0; i < silp.N; i += 2 {
		x[i] = float64(1 + i%3)
	}
	opts := smallOptions(3)
	opts.ValidationM = 5003 // odd, so shards are uneven
	seq, err := Validate(context.Background(), silp, x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, -1} {
		po := *opts
		po.Parallelism = workers
		par, err := Validate(context.Background(), silp, x, &po)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Feasible != seq.Feasible {
			t.Fatalf("workers=%d: feasible %v, want %v", workers, par.Feasible, seq.Feasible)
		}
		if par.Objective != seq.Objective {
			t.Fatalf("workers=%d: objective %v, want %v (must be bit-identical)", workers, par.Objective, seq.Objective)
		}
		for k := range seq.Surpluses {
			if par.Surpluses[k] != seq.Surpluses[k] {
				t.Fatalf("workers=%d: surplus[%d] %v, want %v", workers, k, par.Surpluses[k], seq.Surpluses[k])
			}
			if par.CIHalf[k] != seq.CIHalf[k] {
				t.Fatalf("workers=%d: CIHalf[%d] %v, want %v", workers, k, par.CIHalf[k], seq.CIHalf[k])
			}
		}
	}
}

// TestParallelSummarySearchBitIdentical runs the full algorithm at several
// worker counts: the parallel engine must not change any answer.
func TestParallelSummarySearchBitIdentical(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	seq, err := SummarySearch(silp, smallOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		opts := smallOptions(9)
		opts.Parallelism = workers
		par, err := SummarySearch(silp, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Feasible != seq.Feasible || par.Objective != seq.Objective ||
			par.M != seq.M || par.Z != seq.Z {
			t.Fatalf("workers=%d: (feasible,obj,M,Z)=(%v,%v,%d,%d), want (%v,%v,%d,%d)",
				workers, par.Feasible, par.Objective, par.M, par.Z,
				seq.Feasible, seq.Objective, seq.M, seq.Z)
		}
		for i := range seq.X {
			if par.X[i] != seq.X[i] {
				t.Fatalf("workers=%d: package differs at tuple %d", workers, i)
			}
		}
	}
}

// TestParallelNaiveBitIdentical covers the SAA baseline's parallel scenario
// generation path.
func TestParallelNaiveBitIdentical(t *testing.T) {
	silp := portfolioSILP(t, 10, easyQuery)
	seq, err := Naive(silp, smallOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions(4)
	opts.Parallelism = 4
	par, err := Naive(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Feasible != seq.Feasible || par.Objective != seq.Objective || par.M != seq.M {
		t.Fatalf("parallel Naive diverged: (%v,%v,%d) vs (%v,%v,%d)",
			par.Feasible, par.Objective, par.M, seq.Feasible, seq.Objective, seq.M)
	}
}

// TestSummarySearchCtxCancellation starts a long evaluation and cancels it:
// the evaluation must return promptly with the context's error, even if a
// MILP solve is in flight (the solver polls the cancel channel per node).
func TestSummarySearchCtxCancellation(t *testing.T) {
	silp := portfolioSILP(t, 40, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 2000 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.99
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := &Options{
		Seed:        1,
		ValidationM: 200000, // large M̂ so validation alone is slow
		InitialM:    50,
		IncrementM:  50,
		// The package never changes, so after the first validation every
		// round is a memoized verdict plus a tiny solve: a far-off MaxM keeps
		// the evaluation running well past the cancel.
		MaxM:        1 << 20,
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := SummarySearchCtx(ctx, silp, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSummarySearchCtxDeadline covers the deadline path end to end.
func TestSummarySearchCtxDeadline(t *testing.T) {
	silp := portfolioSILP(t, 40, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 2000 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.99
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := &Options{
		Seed:        1,
		ValidationM: 200000,
		InitialM:    50,
		IncrementM:  50,
		MaxM:        1 << 20, // far off, as in TestSummarySearchCtxCancellation
		Parallelism: 2,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SummarySearchCtx(ctx, silp, opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline expiry took %v, want prompt return", elapsed)
	}
}
