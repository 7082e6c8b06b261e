// Package experiments reproduces the paper's evaluation (§6): end-to-end
// time to 100% feasibility (Figure 4), scalability in optimization scenarios
// M (Figure 5), in summaries Z (Figure 6), and in dataset size N (Figure 7),
// for both Naïve and SummarySearch over the Galaxy/Portfolio/TPC-H
// workloads. Results are plain records that cmd/spqbench renders as the
// rows/series the paper plots.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"spq/internal/core"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// Method names an evaluation algorithm.
type Method string

const (
	MethodNaive         Method = "Naive"
	MethodSummarySearch Method = "SummarySearch"
)

// Config controls an experiment run.
type Config struct {
	// WorkloadN is the table size per workload (stocks for Portfolio).
	WorkloadN int
	// DataSeed drives synthetic base-data generation.
	DataSeed uint64
	// Runs is the number of i.i.d. runs per point (the paper uses 10).
	Runs int
	// ValidationM is M̂.
	ValidationM int
	// InitialM / IncrementM / MaxM control the scenario schedule.
	InitialM   int
	IncrementM int
	MaxM       int
	// SolverTime bounds each MILP solve.
	SolverTime time.Duration
	// TimeLimit bounds each full query evaluation (the paper's 4-hour cap).
	TimeLimit time.Duration
	// MeansM is the scenario count for mean precomputation.
	MeansM int
}

// Defaults returns a laptop-scale configuration with the paper's shape
// preserved (bench/README.md records the sizes the benchmark runs at).
func Defaults() Config {
	return Config{
		WorkloadN:   300,
		DataSeed:    42,
		Runs:        5,
		ValidationM: 3000,
		InitialM:    10,
		IncrementM:  10,
		MaxM:        80,
		SolverTime:  10 * time.Second,
		TimeLimit:   2 * time.Minute,
		MeansM:      1000,
	}
}

func (c Config) coreOptions(runSeed uint64, fixedZ int) *core.Options {
	return &core.Options{
		Seed:        runSeed,
		ValidationM: c.ValidationM,
		InitialM:    c.InitialM,
		IncrementM:  c.IncrementM,
		MaxM:        c.MaxM,
		FixedZ:      fixedZ,
		SolverTime:  c.SolverTime,
		TimeLimit:   c.TimeLimit,
	}
}

// Record is one (query, method, run) outcome.
type Record struct {
	Workload  string
	Query     string
	Method    Method
	Param     string // swept parameter name: "", "M", "Z", or "N"
	Value     int    // swept parameter value
	Run       int
	Feasible  bool
	Objective float64
	Maximize  bool
	Time      time.Duration
	FinalM    int
	FinalZ    int
	Iters     int
	Err       string
}

// buildInstance constructs the named workload.
func buildInstance(name string, n int, seed uint64, meansM int) (*workload.Instance, error) {
	cfg := workload.Config{N: n, Seed: seed, MeansM: meansM}
	switch name {
	case "galaxy":
		return workload.Galaxy(cfg), nil
	case "portfolio":
		return workload.Portfolio(cfg), nil
	case "tpch":
		return workload.TPCH(cfg), nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
}

// evaluate runs one method once on one query.
func evaluate(in *workload.Instance, q workload.Query, method Method, opts *core.Options) Record {
	rec := Record{Workload: in.Name, Query: q.ID, Method: method}
	parsed, err := spaql.Parse(q.SPaQL)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	silp, err := translate.Build(parsed, in.Table(q.Table), nil)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Maximize = silp.Maximize
	start := time.Now()
	var sol *core.Solution
	switch method {
	case MethodNaive:
		sol, err = core.Naive(silp, opts)
	default:
		sol, err = core.SummarySearch(silp, opts)
	}
	rec.Time = time.Since(start)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Feasible = sol.Feasible
	rec.Objective = sol.Objective
	rec.FinalM = sol.M
	rec.FinalZ = sol.Z
	rec.Iters = len(sol.Iterations)
	return rec
}

// RunEndToEnd reproduces Figure 4: for every query of the named workloads,
// run both methods Runs times with distinct seeds and record feasibility
// and cumulative time.
func RunEndToEnd(cfg Config, workloads []string, queryFilter []string) ([]Record, error) {
	var out []Record
	for _, wname := range workloads {
		in, err := buildInstance(wname, cfg.WorkloadN, cfg.DataSeed, cfg.MeansM)
		if err != nil {
			return nil, err
		}
		for _, q := range in.Queries {
			if !matchQuery(q.ID, queryFilter) {
				continue
			}
			for run := 0; run < cfg.Runs; run++ {
				seed := rng.Mix(cfg.DataSeed, uint64(run)+1)
				for _, method := range []Method{MethodSummarySearch, MethodNaive} {
					opts := cfg.coreOptions(seed, q.FixedZ)
					rec := evaluate(in, q, method, opts)
					rec.Run = run
					out = append(out, rec)
				}
			}
		}
	}
	return out, nil
}

// RunScenarioScaling reproduces Figure 5: pin M at each value (no growth)
// and compare methods.
func RunScenarioScaling(cfg Config, wname, queryID string, ms []int) ([]Record, error) {
	in, err := buildInstance(wname, cfg.WorkloadN, cfg.DataSeed, cfg.MeansM)
	if err != nil {
		return nil, err
	}
	q, ok := in.QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("experiments: %s has no query %s", wname, queryID)
	}
	var out []Record
	for _, m := range ms {
		for run := 0; run < cfg.Runs; run++ {
			seed := rng.Mix(cfg.DataSeed, uint64(m), uint64(run)+1)
			for _, method := range []Method{MethodSummarySearch, MethodNaive} {
				opts := cfg.coreOptions(seed, q.FixedZ)
				opts.InitialM = m
				opts.IncrementM = m
				opts.MaxM = m // single shot at this M
				rec := evaluate(in, q, method, opts)
				rec.Param, rec.Value, rec.Run = "M", m, run
				out = append(out, rec)
			}
		}
	}
	return out, nil
}

// RunSummaryScaling reproduces Figure 6 (Portfolio): fix M and sweep Z for
// SummarySearch, with Naïve at the same M as the reference series.
func RunSummaryScaling(cfg Config, wname, queryID string, m int, zs []int) ([]Record, error) {
	in, err := buildInstance(wname, cfg.WorkloadN, cfg.DataSeed, cfg.MeansM)
	if err != nil {
		return nil, err
	}
	q, ok := in.QueryByID(queryID)
	if !ok {
		return nil, fmt.Errorf("experiments: %s has no query %s", wname, queryID)
	}
	var out []Record
	for run := 0; run < cfg.Runs; run++ {
		seed := rng.Mix(cfg.DataSeed, 0xf16, uint64(run)+1)
		opts := cfg.coreOptions(seed, 0)
		opts.InitialM = m
		opts.IncrementM = m
		opts.MaxM = m
		rec := evaluate(in, q, MethodNaive, opts)
		rec.Param, rec.Value, rec.Run = "Z", m, run // Naïve ≡ Z=M reference
		out = append(out, rec)
	}
	for _, z := range zs {
		if z > m {
			continue
		}
		for run := 0; run < cfg.Runs; run++ {
			seed := rng.Mix(cfg.DataSeed, 0xf16, uint64(run)+1)
			opts := cfg.coreOptions(seed, z)
			opts.InitialM = m
			opts.IncrementM = m
			opts.MaxM = m
			rec := evaluate(in, q, MethodSummarySearch, opts)
			rec.Param, rec.Value, rec.Run = "Z", z, run
			out = append(out, rec)
		}
	}
	return out, nil
}

// RunSizeScaling reproduces Figure 7 (Galaxy): sweep the dataset size N.
func RunSizeScaling(cfg Config, wname, queryID string, ns []int) ([]Record, error) {
	var out []Record
	for _, n := range ns {
		in, err := buildInstance(wname, n, cfg.DataSeed, cfg.MeansM)
		if err != nil {
			return nil, err
		}
		q, ok := in.QueryByID(queryID)
		if !ok {
			return nil, fmt.Errorf("experiments: %s has no query %s", wname, queryID)
		}
		for run := 0; run < cfg.Runs; run++ {
			seed := rng.Mix(cfg.DataSeed, uint64(n), uint64(run)+1)
			for _, method := range []Method{MethodSummarySearch, MethodNaive} {
				opts := cfg.coreOptions(seed, q.FixedZ)
				rec := evaluate(in, q, method, opts)
				rec.Param, rec.Value, rec.Run = "N", n, run
				out = append(out, rec)
			}
		}
	}
	return out, nil
}

// Point is an aggregated experiment point: one (query, method, param value).
type Point struct {
	Workload string
	Query    string
	Method   Method
	Param    string
	Value    int
	Runs     int
	// FeasRate is the feasibility rate over runs (§6.1 metric).
	FeasRate float64
	// MeanTime averages wall-clock across runs.
	MeanTime time.Duration
	// ApproxRatio is 1+ε̂ relative to the best feasible objective found by
	// any method at the same point group (§6.1); NaN when never feasible.
	ApproxRatio float64
	// MeanObjective averages the (feasible-run) objectives.
	MeanObjective float64
}

// Aggregate groups records into points and computes feasibility rates and
// empirical approximation ratios 1+ε̂ = ω/ω* (min) or ω*/ω (max), where ω*
// is the best feasible objective at the same (workload, query, param value)
// across all methods.
func Aggregate(records []Record) []Point {
	type groupKey struct {
		w, q, param string
		value       int
	}
	type pointKey struct {
		groupKey
		method Method
	}
	bestObj := map[groupKey]float64{}
	haveBest := map[groupKey]bool{}
	for _, r := range records {
		if !r.Feasible {
			continue
		}
		gk := groupKey{r.Workload, r.Query, r.Param, r.Value}
		if !haveBest[gk] {
			bestObj[gk], haveBest[gk] = r.Objective, true
			continue
		}
		if (r.Maximize && r.Objective > bestObj[gk]) || (!r.Maximize && r.Objective < bestObj[gk]) {
			bestObj[gk] = r.Objective
		}
	}
	pts := map[pointKey]*Point{}
	var order []pointKey
	for _, r := range records {
		pk := pointKey{groupKey{r.Workload, r.Query, r.Param, r.Value}, r.Method}
		p, ok := pts[pk]
		if !ok {
			p = &Point{Workload: r.Workload, Query: r.Query, Method: r.Method, Param: r.Param, Value: r.Value, ApproxRatio: math.NaN()}
			pts[pk] = p
			order = append(order, pk)
		}
		p.Runs++
		p.MeanTime += r.Time
		if r.Feasible {
			p.FeasRate++
			p.MeanObjective += r.Objective
		}
	}
	var out []Point
	for _, pk := range order {
		p := pts[pk]
		feasRuns := p.FeasRate
		p.FeasRate /= float64(p.Runs)
		p.MeanTime /= time.Duration(p.Runs)
		if feasRuns > 0 {
			p.MeanObjective /= feasRuns
			gk := pk.groupKey
			if haveBest[gk] {
				best := bestObj[gk]
				p.ApproxRatio = ratio(p.MeanObjective, best, recordsMaximize(records, pk.q))
			}
		}
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Query != b.Query {
			return a.Query < b.Query
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Method < b.Method
	})
	return out
}

// recordsMaximize finds the sense of a query from the records (all records
// of one query share it).
func recordsMaximize(records []Record, query string) bool {
	for _, r := range records {
		if r.Query == query {
			return r.Maximize
		}
	}
	return false
}

// ratio computes the empirical 1+ε̂ accuracy metric of §6.1.
func ratio(obj, best float64, maximize bool) float64 {
	if maximize {
		if obj == 0 {
			return math.Inf(1)
		}
		r := best / obj
		if r < 1 {
			r = 1
		}
		return r
	}
	if best == 0 {
		if obj == 0 {
			return 1
		}
		return math.Inf(1)
	}
	r := obj / best
	if r < 1 {
		r = 1
	}
	return r
}

// RenderPoints renders aggregated points as an aligned text table, one row
// per point — the textual equivalent of a paper figure.
func RenderPoints(title string, pts []Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	fmt.Fprintf(&sb, "%-10s %-4s %-14s %6s %8s %12s %12s %10s\n",
		"workload", "qry", "method", "param", "feas%", "time", "objective", "1+eps")
	for _, p := range pts {
		param := "-"
		if p.Param != "" {
			param = fmt.Sprintf("%s=%d", p.Param, p.Value)
		}
		approx := "-"
		if !math.IsNaN(p.ApproxRatio) {
			approx = fmt.Sprintf("%.3f", p.ApproxRatio)
		}
		obj := "-"
		if p.FeasRate > 0 {
			obj = fmt.Sprintf("%.4g", p.MeanObjective)
		}
		fmt.Fprintf(&sb, "%-10s %-4s %-14s %6s %7.0f%% %12s %12s %10s\n",
			p.Workload, p.Query, p.Method, param, p.FeasRate*100,
			p.MeanTime.Round(time.Millisecond), obj, approx)
	}
	return sb.String()
}

func matchQuery(id string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if strings.EqualFold(f, id) {
			return true
		}
	}
	return false
}
