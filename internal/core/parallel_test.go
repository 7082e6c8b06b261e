package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"spq/internal/relation"
	"spq/internal/rng"
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

// stallVG realises like the generator it wraps, except that its first
// realisation waits until release is closed. x(0) is solved over means, so
// the first value an evaluation realises is a validation one: every
// evaluation stalls there until release, however fast the rest has become.
type stallVG struct {
	relation.VGFunc
	once    sync.Once
	release <-chan struct{}
}

func (g *stallVG) Value(src rng.Source, tuple, scenario int) float64 {
	g.once.Do(func() { <-g.release })
	return g.VGFunc.Value(src, tuple, scenario)
}

// stalledEval runs SummarySearchCtx on a portfolio query whose first
// validation realisation waits for ctx to end, so the evaluation is still
// running when ctx is cancelled or its deadline passes. It returns how long
// the evaluation took and its error.
func stalledEval(ctx context.Context, t *testing.T) (time.Duration, error) {
	rel := portfolioRel(t, 40, func(vg relation.VGFunc) relation.VGFunc {
		return &stallVG{VGFunc: vg, release: ctx.Done()}
	})
	silp := buildSILP(t, rel, `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 2000 AND
		SUM(gain) >= 500 WITH PROBABILITY >= 0.99
		MAXIMIZE EXPECTED SUM(gain)`)
	opts := &Options{Seed: 1, ValidationM: 20000, InitialM: 50, IncrementM: 50, MaxM: 1000, Parallelism: 2}
	start := time.Now()
	_, err := SummarySearchCtx(ctx, silp, opts)
	return time.Since(start), err
}

// TestSummarySearchCtxCancellation cancels a running evaluation: it must
// return promptly with the context's error.
func TestSummarySearchCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	elapsed, err := stalledEval(ctx, t)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSummarySearchCtxDeadline covers the deadline path end to end.
func TestSummarySearchCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	elapsed, err := stalledEval(ctx, t)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline expiry took %v, want prompt return", elapsed)
	}
}
