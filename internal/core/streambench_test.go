package core

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// spillItems streams an n-row CSV (id, price) through SpillCSV without ever
// holding the text in memory, then attaches a constant-state stochastic
// attribute (a single broadcast distribution, so VG memory is O(1) in n).
func spillItems(tb testing.TB, dir string, n int) *relation.Relation {
	tb.Helper()
	pr, pw := io.Pipe()
	go func() {
		fmt.Fprintln(pw, "id,price")
		for i := 0; i < n; i++ {
			fmt.Fprintf(pw, "%d,%d\n", i, 40+7*(i%9))
		}
		pw.Close()
	}()
	rel, err := relation.SpillCSV("items", pr, dir, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rel.AddStoch("gain", &relation.IndependentVG{
		AttrID: 1,
		Dists:  []dist.Dist{dist.Normal{Mu: 1, Sigma: 1.5}},
	}); err != nil {
		tb.Fatal(err)
	}
	return rel
}

// streamBenchQuery keeps the solved problem constant-size while the catalog
// grows: WHERE pushdown keeps exactly 1000 of the n tuples before any
// scenario is generated, the objective is deterministic (no mean
// precomputation, which would touch every tuple), and the probabilistic
// constraint streams block-wise.
const streamBenchQuery = `SELECT PACKAGE(*) FROM items WHERE id < 1000 SUCH THAT
	SUM(price) <= 400 AND
	SUM(gain) >= -3 WITH PROBABILITY >= 0.8
	MAXIMIZE SUM(price)`

// solveStreamed evaluates streamBenchQuery over rel. nodes caps each MILP
// solve's branch-and-bound nodes; 0 keeps the default budget.
func solveStreamed(tb testing.TB, rel *relation.Relation, seed uint64, nodes int) *Solution {
	tb.Helper()
	q := spaql.MustParse(streamBenchQuery)
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sol, err := SummarySearch(silp, &Options{
		Seed:        seed,
		ValidationM: 1000,
		InitialM:    10,
		IncrementM:  10,
		MaxM:        40,
		SolverNodes: nodes,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sol
}

// peakHeapDuring samples runtime.MemStats.HeapAlloc while f runs and returns
// the largest observation, starting from a GC-settled baseline.
func peakHeapDuring(f func()) uint64 {
	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	f()
	runtime.ReadMemStats(new(runtime.MemStats)) // flush one final sample point
	close(stop)
	<-done
	return peak.Load()
}

// TestStreamingPeakHeapFlat is the memory-model acceptance check: a streamed
// end-to-end query over an out-of-core relation must keep peak heap within
// 2× (plus a small fixed slack) while the relation grows 100×, because the
// pushdown scan is block-wise, the kept view is O(selected), and scenario
// values are realized block-wise instead of materialized N×M. Every solve
// stops at 2 000 nodes, long before the 30 s SolverTime even under -race,
// so both catalog sizes do the same search: the x(0) solve needs about
// 95 000 nodes to prove its optimum, and a time-capped one answers with
// whatever incumbent the host reached.
func TestStreamingPeakHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1M-tuple out-of-core relation")
	}
	const small, big = 10_000, 1_000_000
	const nodes = 2000

	measure := func(n int) (uint64, *Solution) {
		dir := t.TempDir()
		rel := spillItems(t, dir, n)
		var sol *Solution
		peak := peakHeapDuring(func() {
			sol = solveStreamed(t, rel, 7, nodes)
		})
		return peak, sol
	}

	// Warm-up evaluation so lazily initialized runtime state (parser tables,
	// pools) does not count against the small baseline.
	{
		dir := t.TempDir()
		solveStreamed(t, spillItems(t, dir, small), 7, nodes)
	}

	peakSmall, solSmall := measure(small)
	peakBig, solBig := measure(big)

	// The solved problem is identical (same 1000 kept tuples, same seed), so
	// the answers must match exactly — streamed evaluation is bit-identical
	// regardless of catalog size beyond the WHERE cut.
	if solSmall.Objective != solBig.Objective || solSmall.Feasible != solBig.Feasible {
		t.Fatalf("solutions diverged across catalog sizes: (%v,%v) vs (%v,%v)",
			solSmall.Objective, solSmall.Feasible, solBig.Objective, solBig.Feasible)
	}
	for i := range solSmall.X {
		if solSmall.X[i] != solBig.X[i] {
			t.Fatalf("X[%d] differs across catalog sizes", i)
		}
	}

	const slack = 8 << 20 // fixed allowance for GC timing noise
	if peakBig > 2*peakSmall+slack {
		t.Fatalf("peak heap grew with catalog size: %d bytes at N=%d vs %d bytes at N=%d (limit 2x+%d)",
			peakBig, big, peakSmall, small, slack)
	}
	t.Logf("peak heap: %.1f MiB at N=%d, %.1f MiB at N=%d",
		float64(peakSmall)/(1<<20), small, float64(peakBig)/(1<<20), big)
}

// BenchmarkStreamEndToEnd measures the streamed end-to-end query (spill
// excluded, pushdown + solve included) at growing catalog sizes; run with
// -benchmem to see that allocation stays flat while N grows.
func BenchmarkStreamEndToEnd(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			rel := spillItems(b, dir, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveStreamed(b, rel, 7, 0)
			}
		})
	}
}
