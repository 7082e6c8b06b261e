package spq

// Benchmarks regenerating the paper's experiments (§6) in testing.B form —
// one benchmark family per figure, plus ablation benches for the design
// choices DESIGN.md calls out. Run all with:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration performs one full query evaluation (or one
// experiment kernel); reported metrics include feasibility rate and the
// scenario count at feasibility via b.ReportMetric.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"spq/internal/core"
	"spq/internal/experiments"
	"spq/internal/rng"
	"spq/internal/scenario"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// benchN is the workload scale for benchmarks: small enough to iterate,
// large enough that SAA vs CSA separation is visible.
const benchN = 150

func benchConfig() workload.Config {
	return workload.Config{N: benchN, Seed: 42, MeansM: 500}
}

func benchOptions(seed uint64, fixedZ int) *core.Options {
	return &core.Options{
		Seed:        seed,
		ValidationM: 2000,
		InitialM:    10,
		IncrementM:  10,
		MaxM:        60,
		FixedZ:      fixedZ,
		SolverTime:  10 * time.Second,
		// Bound each evaluation so Naïve benches report its time-limited
		// behaviour (the paper's cutoff protocol) instead of stalling the
		// bench harness.
		TimeLimit: 30 * time.Second,
	}
}

// buildSILP prepares a workload query for direct algorithm benchmarking.
func buildSILP(b *testing.B, in *workload.Instance, qid string) *translate.SILP {
	b.Helper()
	q, ok := in.QueryByID(qid)
	if !ok {
		b.Fatalf("no query %s", qid)
	}
	parsed, err := spaql.Parse(q.SPaQL)
	if err != nil {
		b.Fatal(err)
	}
	silp, err := translate.Build(parsed, in.Table(q.Table), nil)
	if err != nil {
		b.Fatal(err)
	}
	return silp
}

// runMethod executes one evaluation and reports feasibility/scenario-count
// metrics.
func runMethod(b *testing.B, silp *translate.SILP, method experiments.Method, fixedZ int) {
	b.Helper()
	feasible := 0
	totalM := 0
	for i := 0; i < b.N; i++ {
		opts := benchOptions(uint64(i)+1, fixedZ)
		var sol *core.Solution
		var err error
		if method == experiments.MethodNaive {
			sol, err = core.Naive(silp, opts)
		} else {
			sol, err = core.SummarySearch(silp, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		if sol.Feasible {
			feasible++
		}
		totalM += sol.M
	}
	b.ReportMetric(float64(feasible)/float64(b.N), "feasRate")
	b.ReportMetric(float64(totalM)/float64(b.N), "finalM")
}

// --- Figure 4: end-to-end time to feasibility, per workload ---

func BenchmarkFig4GalaxyQ1SummarySearch(b *testing.B) {
	silp := buildSILP(b, workload.Galaxy(benchConfig()), "Q1")
	b.ResetTimer()
	runMethod(b, silp, experiments.MethodSummarySearch, 1)
}

func BenchmarkFig4GalaxyQ1Naive(b *testing.B) {
	silp := buildSILP(b, workload.Galaxy(benchConfig()), "Q1")
	b.ResetTimer()
	runMethod(b, silp, experiments.MethodNaive, 0)
}

func BenchmarkFig4PortfolioQ1SummarySearch(b *testing.B) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q1")
	b.ResetTimer()
	runMethod(b, silp, experiments.MethodSummarySearch, 1)
}

func BenchmarkFig4PortfolioQ1Naive(b *testing.B) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q1")
	b.ResetTimer()
	runMethod(b, silp, experiments.MethodNaive, 0)
}

func BenchmarkFig4TPCHQ1SummarySearch(b *testing.B) {
	silp := buildSILP(b, workload.TPCH(benchConfig()), "Q1")
	b.ResetTimer()
	runMethod(b, silp, experiments.MethodSummarySearch, 2)
}

func BenchmarkFig4TPCHQ1Naive(b *testing.B) {
	silp := buildSILP(b, workload.TPCH(benchConfig()), "Q1")
	b.ResetTimer()
	runMethod(b, silp, experiments.MethodNaive, 0)
}

// --- Figure 5: scalability in the number of optimization scenarios M ---

func benchmarkFig5(b *testing.B, method experiments.Method, m int) {
	silp := buildSILP(b, workload.Galaxy(benchConfig()), "Q1")
	b.ResetTimer()
	feasible := 0
	for i := 0; i < b.N; i++ {
		opts := benchOptions(uint64(i)+1, 1)
		opts.InitialM = m
		opts.IncrementM = m
		opts.MaxM = m
		var sol *core.Solution
		var err error
		if method == experiments.MethodNaive {
			sol, err = core.Naive(silp, opts)
		} else {
			sol, err = core.SummarySearch(silp, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
		if sol.Feasible {
			feasible++
		}
	}
	b.ReportMetric(float64(feasible)/float64(b.N), "feasRate")
}

func BenchmarkFig5SummarySearchM10(b *testing.B) {
	benchmarkFig5(b, experiments.MethodSummarySearch, 10)
}
func BenchmarkFig5SummarySearchM40(b *testing.B) {
	benchmarkFig5(b, experiments.MethodSummarySearch, 40)
}
func BenchmarkFig5NaiveM10(b *testing.B) { benchmarkFig5(b, experiments.MethodNaive, 10) }
func BenchmarkFig5NaiveM40(b *testing.B) { benchmarkFig5(b, experiments.MethodNaive, 40) }

// --- Figure 6: scalability in the number of summaries Z (Portfolio) ---

func benchmarkFig6(b *testing.B, z int) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchOptions(uint64(i)+1, z)
		opts.InitialM = 40
		opts.IncrementM = 40
		opts.MaxM = 40
		if _, err := core.SummarySearch(silp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Z1(b *testing.B)  { benchmarkFig6(b, 1) }
func BenchmarkFig6Z4(b *testing.B)  { benchmarkFig6(b, 4) }
func BenchmarkFig6Z20(b *testing.B) { benchmarkFig6(b, 20) }
func BenchmarkFig6Z40(b *testing.B) { benchmarkFig6(b, 40) } // Z=M ≡ Naïve shape

// --- Figure 7: scalability in dataset size N (Galaxy) ---

func benchmarkFig7(b *testing.B, n int) {
	cfg := benchConfig()
	cfg.N = n
	silp := buildSILP(b, workload.Galaxy(cfg), "Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SummarySearch(silp, benchOptions(uint64(i)+1, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7N150(b *testing.B) { benchmarkFig7(b, 150) }
func BenchmarkFig7N300(b *testing.B) { benchmarkFig7(b, 300) }
func BenchmarkFig7N750(b *testing.B) { benchmarkFig7(b, 750) }

// --- §3.1/§4.1: DILP formulation size and time (SAA Θ(NMK) vs CSA Θ(NZK)) ---

func BenchmarkFormulateSAA(b *testing.B) {
	silp := buildSILP(b, workload.Galaxy(benchConfig()), "Q1")
	src := rng.NewSource(1)
	// SAA_{Q,100} is CSA over 100 one-scenario summaries.
	cur := silp.ConsCursor(0, src, 0)
	sums := make([]*scenario.Summary, 100)
	for j := range sums {
		sm, err := cur.Summarize(context.Background(), []int{j}, silp.ProbCons[0].Direction(), nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		sums[j] = sm
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, _, err := silp.FormulateCSA([][]*scenario.Summary{sums}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(model.NumCoefficients()), "coefficients")
		}
	}
}

func BenchmarkFormulateCSA(b *testing.B) {
	silp := buildSILP(b, workload.Galaxy(benchConfig()), "Q1")
	src := rng.NewSource(1)
	sets, _, err := silp.GenerateSetsP(context.Background(), src, 0, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	parts := scenario.PartitionIDs(100, 1, 7)
	sm, err := sets[0].SummarizeP(context.Background(), parts[0], silp.ProbCons[0].Direction(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, _, err := silp.FormulateCSA([][]*scenario.Summary{{sm}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(model.NumCoefficients()), "coefficients")
		}
	}
}

// --- Ablation: convergence acceleration (§5.5) ---

func benchmarkAcceleration(b *testing.B, disable bool) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchOptions(uint64(i)+1, 1)
		opts.DisableAcceleration = disable
		if _, err := core.SummarySearch(silp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccelerationOn(b *testing.B)  { benchmarkAcceleration(b, false) }
func BenchmarkAccelerationOff(b *testing.B) { benchmarkAcceleration(b, true) }

// --- Validation throughput (§3.2 streaming validator) ---

func BenchmarkValidation(b *testing.B) {
	db := NewDB()
	db.MeansM = 200
	in := workload.Portfolio(benchConfig())
	rel := in.Table("trades_2day_all")
	if err := db.Register(rel); err != nil {
		b.Fatal(err)
	}
	query := fmt.Sprintf(`SELECT PACKAGE(*) FROM %s SUCH THAT
		SUM(price) <= 1000 AND
		SUM(gain) >= -10 WITH PROBABILITY >= 0.9
		MAXIMIZE EXPECTED SUM(gain)`, rel.Name())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := &core.Options{
			Seed: uint64(i) + 1, ValidationM: 10000,
			InitialM: 10, IncrementM: 10, MaxM: 30, FixedZ: 1,
		}
		if _, err := db.Query(query, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel engine: sequential vs sharded validation (internal/engine) ---

// benchmarkValidateParallel measures the out-of-sample validator alone at
// M̂ = 10000 with the given worker count. The packages validated are
// identical across worker counts (parallel validation is bit-identical), so
// the benchmarks are directly comparable; see DESIGN.md for recorded
// numbers (≥ 2× at 4 workers on a 4-core machine).
func benchmarkValidateParallel(b *testing.B, workers int) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q1")
	// A fixed, moderately dense package: every 3rd tuple with 1–3 copies.
	x := make([]float64, silp.N)
	for i := 0; i < silp.N; i += 3 {
		x[i] = float64(1 + i%3)
	}
	opts := &core.Options{ValidationM: 10000, Parallelism: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Validate(context.Background(), silp, x, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

func BenchmarkValidateM10000Workers1(b *testing.B) { benchmarkValidateParallel(b, 1) }
func BenchmarkValidateM10000Workers2(b *testing.B) { benchmarkValidateParallel(b, 2) }
func BenchmarkValidateM10000Workers4(b *testing.B) { benchmarkValidateParallel(b, 4) }
func BenchmarkValidateM10000WorkersAll(b *testing.B) {
	benchmarkValidateParallel(b, -1)
}

// --- Parallel engine: scenario-set generation (translate.GenerateSetsP) ---

func benchmarkGenerateSets(b *testing.B, workers int) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q1")
	src := rng.NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := silp.GenerateSetsP(context.Background(), src, 0, 200, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSetsWorkers1(b *testing.B)   { benchmarkGenerateSets(b, 1) }
func BenchmarkGenerateSetsWorkersAll(b *testing.B) { benchmarkGenerateSets(b, -1) }

// --- Parallel engine: end-to-end SummarySearch with worker pool ---

func benchmarkSummarySearchParallel(b *testing.B, workers int) {
	silp := buildSILP(b, workload.Portfolio(benchConfig()), "Q1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchOptions(uint64(i)+1, 1)
		opts.ValidationM = 10000
		opts.Parallelism = workers
		if _, err := core.SummarySearch(silp, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarySearchSequential(b *testing.B) { benchmarkSummarySearchParallel(b, 1) }
func BenchmarkSummarySearchParallel(b *testing.B)   { benchmarkSummarySearchParallel(b, -1) }

// --- End-to-end experiment kernels (the repo benchmark is bench/README.md) ---

func BenchmarkExperimentEndToEndKernel(b *testing.B) {
	cfg := experiments.Defaults()
	cfg.WorkloadN = 80
	cfg.Runs = 1
	cfg.ValidationM = 1000
	cfg.MaxM = 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.DataSeed = uint64(i) + 1
		if _, err := experiments.RunEndToEnd(cfg, []string{"portfolio"}, []string{"Q1"}); err != nil {
			b.Fatal(err)
		}
	}
}
