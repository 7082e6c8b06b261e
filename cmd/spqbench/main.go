// Command spqbench regenerates the paper's experiments (§6) at configurable
// scale:
//
//	spqbench -experiment fig4                    # end-to-end time to 100% feasibility (Figure 4)
//	spqbench -experiment fig5 -workload galaxy -query Q1   # scenario scaling (Figure 5)
//	spqbench -experiment fig6 -query Q1          # summary scaling on Portfolio (Figure 6)
//	spqbench -experiment fig7 -query Q1          # dataset-size scaling on Galaxy (Figure 7)
//	spqbench -experiment table3                  # the 24 workload queries (Table 3)
//	spqbench -experiment sizes                   # SAA vs CSA DILP sizes (§3.1 vs §4.1)
//	spqbench -phases -workload galaxy -query Q2  # per-phase latency breakdown from trace spans
//
// Absolute numbers differ from the paper (pure-Go solver, synthetic data,
// reduced scale — see bench/README.md); the comparisons the paper draws
// (who reaches feasibility, how time scales with M/Z/N, who wins and by
// how much) are what this harness reproduces.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"spq"
	"spq/internal/core"
	"spq/internal/engine"
	"spq/internal/experiments"
	"spq/internal/obs"
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
		phases   = flag.Bool("phases", false, "run -workload/-query once and print the per-phase latency breakdown from its trace spans")
		method   = flag.String("method", "summarysearch", "evaluation method for -phases: summarysearch | naive | sketch")
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

	if *phases {
		if err := runPhases(cfg, *wname, *query, *method); err != nil {
			fmt.Fprintln(os.Stderr, "spqbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg, *exp, *wname, *query); err != nil {
		fmt.Fprintln(os.Stderr, "spqbench:", err)
		os.Exit(1)
	}
}

// runPhases evaluates one workload query through the engine and prints the
// per-phase latency table its trace spans add up to. Durations are
// inclusive (a parent covers its children), so the query row is the total
// and nested phases overlap rather than sum to it.
func runPhases(cfg experiments.Config, wname, query, method string) error {
	if wname == "" {
		wname = "galaxy"
	}
	wcfg := workload.Config{N: cfg.WorkloadN, Seed: cfg.DataSeed}
	var inst *workload.Instance
	switch wname {
	case "galaxy":
		inst = workload.Galaxy(wcfg)
	case "portfolio":
		inst = workload.Portfolio(wcfg)
	case "tpch":
		inst = workload.TPCH(wcfg)
	default:
		return fmt.Errorf("unknown workload %q", wname)
	}
	db := spq.NewDB()
	var names []string
	for name := range inst.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := db.Register(inst.Tables[name]); err != nil {
			return err
		}
	}
	q, ok := inst.QueryByID(strings.ToUpper(query))
	if !ok {
		return fmt.Errorf("workload %s has no query %s", wname, query)
	}

	eng := spq.NewEngine(db, &engine.Options{DefaultTimeout: cfg.TimeLimit})
	res, err := eng.Query(context.Background(), engine.Request{
		Query:  q.SPaQL,
		Method: method,
		Options: &core.Options{
			Seed:        cfg.DataSeed,
			ValidationM: cfg.ValidationM,
			InitialM:    cfg.InitialM,
			IncrementM:  cfg.IncrementM,
			MaxM:        cfg.MaxM,
			FixedZ:      q.FixedZ,
			SolverTime:  cfg.SolverTime,
		},
	})
	if err != nil {
		return err
	}
	if res.Trace == nil {
		return fmt.Errorf("engine returned no trace")
	}

	type row struct {
		phase string
		count int
		usec  int64
	}
	agg := map[string]*row{}
	var order []string
	res.Trace.Walk(func(d *obs.SpanData) {
		phase := obs.PhaseName(d.Name)
		r := agg[phase]
		if r == nil {
			r = &row{phase: phase}
			agg[phase] = r
			order = append(order, phase)
		}
		r.count++
		r.usec += d.DurationUS
	})

	fmt.Printf("phase breakdown: %s %s via %s (trace %s, objective %.6g, feasible %v)\n\n",
		wname, q.ID, method, res.Trace.TraceID, res.Objective, res.Feasible)
	fmt.Printf("%-16s %7s %12s %12s %8s\n", "phase", "count", "total(ms)", "mean(ms)", "%query")
	total := res.Trace.DurationUS
	sort.SliceStable(order, func(a, b int) bool { return agg[order[a]].usec > agg[order[b]].usec })
	for _, phase := range order {
		r := agg[phase]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.usec) / float64(total)
		}
		fmt.Printf("%-16s %7d %12.2f %12.2f %7.1f%%\n",
			r.phase, r.count, float64(r.usec)/1000, float64(r.usec)/1000/float64(r.count), pct)
	}
	return nil
}

func run(cfg experiments.Config, exp, wname, query string) error {
	switch exp {
	case "fig4":
		workloads := experiments.WorkloadNames()
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
		out, err := experiments.DescribeWorkloads(cfg, experiments.WorkloadNames())
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
