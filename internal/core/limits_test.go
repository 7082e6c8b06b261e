package core

import (
	"testing"
	"time"

	"spq/internal/translate"
)

// Tests for time/iteration budget handling — the machinery behind the
// paper's 4-hour cutoff protocol ("when the time limit expires, we
// interrupt CPLEX and get the best solution found so far").

func TestTinyTimeLimitReturnsGracefully(t *testing.T) {
	silp := portfolioSILP(t, 20, easyQuery)
	opts := smallOptions(1)
	opts.TimeLimit = time.Millisecond
	start := time.Now()
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("nil solution under time pressure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time-limited run took %v", elapsed)
	}
}

func TestTinyTimeLimitNaive(t *testing.T) {
	silp := portfolioSILP(t, 20, easyQuery)
	opts := smallOptions(1)
	opts.TimeLimit = time.Millisecond
	start := time.Now()
	sol, err := Naive(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("nil solution under time pressure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time-limited run took %v", elapsed)
	}
}

func TestIterationRecordsPopulated(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	sol, err := SummarySearch(silp, smallOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Iterations) == 0 {
		t.Fatal("no iteration records")
	}
	for i, it := range sol.Iterations {
		if it.M <= 0 {
			t.Fatalf("iteration %d has M=%d", i, it.M)
		}
		if it.Z < 1 {
			t.Fatalf("SummarySearch iteration %d has Z=%d", i, it.Z)
		}
		if len(it.Surpluses) != len(silp.ProbCons) {
			t.Fatalf("iteration %d has %d surpluses", i, len(it.Surpluses))
		}
	}
}

func TestNaiveIterationRecords(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	sol, err := Naive(silp, smallOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Iterations) == 0 {
		t.Fatal("no iteration records")
	}
	for i, it := range sol.Iterations {
		if it.Z != 0 {
			t.Fatalf("Naive iteration %d has Z=%d, want 0", i, it.Z)
		}
		if it.Coefficients <= 0 {
			t.Fatalf("iteration %d missing DILP size", i)
		}
	}
	// Naive DILP sizes grow with M across iterations.
	if len(sol.Iterations) >= 2 {
		first, last := sol.Iterations[0], sol.Iterations[len(sol.Iterations)-1]
		if last.M > first.M && last.Coefficients <= first.Coefficients {
			t.Fatalf("DILP did not grow with M: %d@M=%d vs %d@M=%d",
				first.Coefficients, first.M, last.Coefficients, last.M)
		}
	}
}

func TestMaxCSAItersBoundsWork(t *testing.T) {
	silp := portfolioSILP(t, 12, easyQuery)
	opts := smallOptions(7)
	opts.MaxCSAIters = 2
	sol, err := SummarySearch(silp, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Per (M, Z) pair at most 2 validations; the run can still escalate M.
	perPair := map[[2]int]int{}
	for _, it := range sol.Iterations {
		perPair[[2]int{it.M, it.Z}]++
	}
	for pair, count := range perPair {
		if count > 2 {
			t.Fatalf("pair %v ran %d CSA iterations, cap was 2", pair, count)
		}
	}
}

func TestZeroOptionsUseDefaults(t *testing.T) {
	opts := (&Options{}).withDefaults()
	if opts.ValidationM != 10000 || opts.InitialM != 20 || opts.MaxM != 1000 {
		t.Fatalf("defaults wrong: %+v", opts)
	}
	if opts.IncrementM != opts.InitialM {
		t.Fatalf("IncrementM default should follow InitialM")
	}
	if !isInf(opts.Epsilon) {
		t.Fatalf("Epsilon default should be +Inf, got %v", opts.Epsilon)
	}
	if opts.SolverTime != 30*time.Second {
		t.Fatalf("SolverTime default = %v", opts.SolverTime)
	}
}

// TestMaxMCapsInitialM pins that MaxM bounds every scenario count, the
// first included: a MaxM below the default InitialM (20) must not evaluate
// at 20 scenarios, for either algorithm, whether the query is satisfied at
// the first M or runs out of scenarios.
func TestMaxMCapsInitialM(t *testing.T) {
	const maxM = 7
	if o := (&Options{MaxM: maxM}).withDefaults(); o.InitialM != maxM || o.IncrementM != maxM {
		t.Fatalf("InitialM, IncrementM = %d, %d; want both clamped to MaxM %d", o.InitialM, o.IncrementM, maxM)
	}
	impossible := `SELECT PACKAGE(*) FROM stocks SUCH THAT
		SUM(price) <= 100 AND
		SUM(gain) >= 1000 WITH PROBABILITY >= 0.95
		MAXIMIZE EXPECTED SUM(gain)`
	solvers := []struct {
		name  string
		solve func(*translate.SILP, *Options) (*Solution, error)
	}{{"SummarySearch", SummarySearch}, {"Naive", Naive}}
	for _, q := range []string{easyQuery, impossible} {
		for _, s := range solvers {
			sol, err := s.solve(portfolioSILP(t, 10, q), &Options{Seed: 1, ValidationM: 500, MaxM: maxM})
			if err != nil {
				t.Fatal(err)
			}
			if len(sol.Iterations) == 0 {
				t.Fatalf("%s: no iterations", s.name)
			}
			for i, it := range sol.Iterations {
				if it.M > maxM {
					t.Fatalf("%s: iteration %d ran at M=%d > MaxM %d", s.name, i, it.M, maxM)
				}
			}
			if sol.M > maxM {
				t.Fatalf("%s: Solution.M = %d > MaxM %d", s.name, sol.M, maxM)
			}
		}
	}
}

func isInf(f float64) bool { return f > 1e308 }
