// Command spqbench regenerates the paper's experiments (§6) at configurable
// scale:
//
//	spqbench -experiment fig4                    # end-to-end time to 100% feasibility (Figure 4)
//	spqbench -experiment fig5 -workload galaxy -query Q1   # scenario scaling (Figure 5)
//	spqbench -experiment fig6 -query Q1          # summary scaling on Portfolio (Figure 6)
//	spqbench -experiment fig7 -query Q1          # dataset-size scaling on Galaxy (Figure 7)
//	spqbench -experiment table3                  # the 24 workload queries (Table 3)
//	spqbench -experiment sizes                   # SAA vs CSA DILP sizes (§3.1 vs §4.1)
//
// Absolute numbers differ from the paper (pure-Go solver, synthetic data,
// reduced scale — see bench/README.md); the comparisons the paper draws
// (who reaches feasibility, how time scales with M/Z/N, who wins and by
// how much) are what this harness reproduces.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spq/internal/experiments"
	"spq/internal/workload"
)

func main() {
	var (
		exp      = flag.String("experiment", "fig4", "fig4 | fig5 | fig6 | fig7 | table3 | sizes")
		wname    = flag.String("workload", "", "workload for fig5/sizes (default galaxy) and fig4 filter")
		query    = flag.String("query", "Q1", "query ID for fig5/fig6/fig7/sizes")
		n        = flag.Int("n", 300, "workload size")
		runs     = flag.Int("runs", 3, "i.i.d. runs per point")
		seed     = flag.Uint64("seed", 42, "base random seed")
		valM     = flag.Int("validation", 3000, "validation scenarios M̂")
		initialM = flag.Int("m", 10, "initial optimization scenarios")
		maxM     = flag.Int("maxm", 80, "maximum optimization scenarios")
		solverS  = flag.Duration("solver-time", 10*time.Second, "per-solve time limit")
		queryCap = flag.Duration("time-limit", 2*time.Minute, "per-evaluation time limit")
	)
	flag.Parse()

	cfg := experiments.Defaults()
	cfg.WorkloadN = *n
	cfg.Runs = *runs
	cfg.DataSeed = *seed
	cfg.ValidationM = *valM
	cfg.InitialM = *initialM
	cfg.IncrementM = *initialM
	cfg.MaxM = *maxM
	cfg.SolverTime = *solverS
	cfg.TimeLimit = *queryCap

	if err := run(cfg, *exp, *wname, *query); err != nil {
		fmt.Fprintln(os.Stderr, "spqbench:", err)
		os.Exit(1)
	}
}

func run(cfg experiments.Config, exp, wname, query string) error {
	switch exp {
	case "fig4":
		workloads := workload.Names()
		if wname != "" {
			workloads = strings.Split(wname, ",")
		}
		fmt.Printf("Figure 4: end-to-end feasibility (N=%d, runs=%d, M up to %d)\n\n",
			cfg.WorkloadN, cfg.Runs, cfg.MaxM)
		recs, err := experiments.RunEndToEnd(cfg, workloads, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPoints("Figure 4: time to feasibility per query", experiments.Aggregate(recs)))
	case "fig5":
		if wname == "" {
			wname = "galaxy"
		}
		ms := []int{10, 20, 40, 80}
		fmt.Printf("Figure 5: scenario scaling on %s %s (N=%d)\n\n", wname, query, cfg.WorkloadN)
		recs, err := experiments.RunScenarioScaling(cfg, wname, query, ms)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPoints("Figure 5: time/feasibility/1+eps vs M", experiments.Aggregate(recs)))
	case "fig6":
		m := cfg.MaxM
		zs := []int{1, 2, 4, m / 4, m / 2, m}
		fmt.Printf("Figure 6: summary scaling on portfolio %s (M=%d)\n\n", query, m)
		recs, err := experiments.RunSummaryScaling(cfg, "portfolio", query, m, dedupe(zs))
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPoints("Figure 6: time/feasibility/1+eps vs Z", experiments.Aggregate(recs)))
	case "fig7":
		ns := []int{cfg.WorkloadN, 2 * cfg.WorkloadN, 3 * cfg.WorkloadN, 5 * cfg.WorkloadN}
		fmt.Printf("Figure 7: dataset-size scaling on galaxy %s\n\n", query)
		recs, err := experiments.RunSizeScaling(cfg, "galaxy", query, ns)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderPoints("Figure 7: time/feasibility/1+eps vs N", experiments.Aggregate(recs)))
	case "table3":
		out, err := experiments.DescribeWorkloads(cfg, workload.Names())
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "sizes":
		if wname == "" {
			wname = "galaxy"
		}
		recs, err := experiments.RunSizes(cfg, wname, query,
			[]int{10, 50, 100, 500}, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderSizes(recs))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func dedupe(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if x > 0 && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
