package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"spq/internal/workload"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	return Config{
		WorkloadN:   30,
		DataSeed:    7,
		Runs:        2,
		ValidationM: 400,
		InitialM:    8,
		IncrementM:  8,
		MaxM:        24,
		SolverTime:  5 * time.Second,
		TimeLimit:   time.Minute,
		MeansM:      200,
	}
}

func TestRunEndToEndSingleQuery(t *testing.T) {
	recs, err := RunEndToEnd(tinyConfig(), []string{"portfolio"}, []string{"Q1"})
	if err != nil {
		t.Fatal(err)
	}
	// 2 runs × 2 methods.
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	ssFeasible := false
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("record error: %s", r.Err)
		}
		if r.Method == MethodSummarySearch && r.Feasible {
			ssFeasible = true
		}
		if !r.Maximize {
			t.Fatal("portfolio Q1 is a maximization")
		}
	}
	if !ssFeasible {
		t.Fatal("SummarySearch never reached feasibility on the easy portfolio query")
	}
}

func TestRunScenarioScaling(t *testing.T) {
	recs, err := RunScenarioScaling(tinyConfig(), "galaxy", "Q1", []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*2*2 { // 2 Ms × 2 runs × 2 methods
		t.Fatalf("got %d records", len(recs))
	}
	for _, r := range recs {
		if r.Param != "M" {
			t.Fatalf("param = %q", r.Param)
		}
		if r.Value != 8 && r.Value != 16 {
			t.Fatalf("value = %d", r.Value)
		}
		if r.FinalM > r.Value {
			t.Fatalf("pinned M grew: final %d > %d", r.FinalM, r.Value)
		}
	}
}

func TestRunSummaryScaling(t *testing.T) {
	recs, err := RunSummaryScaling(tinyConfig(), "portfolio", "Q1", 8, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Naïve reference (2 runs) + 3 Z values × 2 runs.
	if len(recs) != 2+6 {
		t.Fatalf("got %d records", len(recs))
	}
	sawNaive := false
	for _, r := range recs {
		if r.Method == MethodNaive {
			sawNaive = true
			if r.Value != 8 {
				t.Fatalf("Naive reference at Z=%d, want M=8", r.Value)
			}
		}
	}
	if !sawNaive {
		t.Fatal("missing Naive reference series")
	}
}

func TestRunSizeScaling(t *testing.T) {
	recs, err := RunSizeScaling(tinyConfig(), "galaxy", "Q3", []int{20, 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*2*2 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, r := range recs {
		if r.Param != "N" {
			t.Fatalf("param = %q", r.Param)
		}
	}
}

func TestAggregateComputesRatesAndRatios(t *testing.T) {
	recs := []Record{
		{Workload: "w", Query: "Q1", Method: MethodSummarySearch, Feasible: true, Objective: 10, Maximize: true, Time: time.Second},
		{Workload: "w", Query: "Q1", Method: MethodSummarySearch, Feasible: true, Objective: 10, Maximize: true, Time: 3 * time.Second},
		{Workload: "w", Query: "Q1", Method: MethodNaive, Feasible: true, Objective: 20, Maximize: true, Time: time.Second},
		{Workload: "w", Query: "Q1", Method: MethodNaive, Feasible: false, Objective: 0, Maximize: true, Time: time.Second},
	}
	pts := Aggregate(recs)
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	var ss, nv Point
	for _, p := range pts {
		switch p.Method {
		case MethodSummarySearch:
			ss = p
		case MethodNaive:
			nv = p
		}
	}
	if ss.FeasRate != 1 || nv.FeasRate != 0.5 {
		t.Fatalf("feas rates: ss=%v nv=%v", ss.FeasRate, nv.FeasRate)
	}
	if ss.MeanTime != 2*time.Second {
		t.Fatalf("ss mean time = %v", ss.MeanTime)
	}
	// Best objective is 20 (Naive); SS ratio = 20/10 = 2, Naive ratio = 1.
	if math.Abs(ss.ApproxRatio-2) > 1e-9 {
		t.Fatalf("ss ratio = %v, want 2", ss.ApproxRatio)
	}
	if math.Abs(nv.ApproxRatio-1) > 1e-9 {
		t.Fatalf("nv ratio = %v, want 1", nv.ApproxRatio)
	}
}

func TestAggregateMinimization(t *testing.T) {
	recs := []Record{
		{Workload: "w", Query: "Q1", Method: MethodSummarySearch, Feasible: true, Objective: 30, Maximize: false},
		{Workload: "w", Query: "Q1", Method: MethodNaive, Feasible: true, Objective: 20, Maximize: false},
	}
	pts := Aggregate(recs)
	for _, p := range pts {
		switch p.Method {
		case MethodSummarySearch:
			if math.Abs(p.ApproxRatio-1.5) > 1e-9 {
				t.Fatalf("ss ratio = %v, want 30/20", p.ApproxRatio)
			}
		case MethodNaive:
			if math.Abs(p.ApproxRatio-1) > 1e-9 {
				t.Fatalf("nv ratio = %v, want 1", p.ApproxRatio)
			}
		}
	}
}

func TestAggregateNeverFeasible(t *testing.T) {
	recs := []Record{
		{Workload: "w", Query: "Q8", Method: MethodNaive, Feasible: false},
	}
	pts := Aggregate(recs)
	if len(pts) != 1 || !math.IsNaN(pts[0].ApproxRatio) {
		t.Fatalf("ratio should be NaN for never-feasible points: %+v", pts)
	}
}

func TestRenderPoints(t *testing.T) {
	pts := []Point{{
		Workload: "galaxy", Query: "Q1", Method: MethodSummarySearch,
		Param: "M", Value: 10, Runs: 5, FeasRate: 1,
		MeanTime: 123 * time.Millisecond, MeanObjective: 42.5, ApproxRatio: 1.02,
	}}
	out := RenderPoints("Figure 5", pts)
	for _, want := range []string{"Figure 5", "galaxy", "Q1", "SummarySearch", "M=10", "100%", "1.020"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunSizesShowsComplexitySeparation(t *testing.T) {
	cfg := tinyConfig()
	recs, err := RunSizes(cfg, "galaxy", "Q1", []int{10, 20, 40}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var saa []SizeRecord
	var csa []SizeRecord
	for _, r := range recs {
		if r.Formulation == "SAA" {
			saa = append(saa, r)
		} else {
			csa = append(csa, r)
		}
	}
	if len(saa) != 3 || len(csa) != 2 {
		t.Fatalf("got %d SAA, %d CSA", len(saa), len(csa))
	}
	// SAA grows with M.
	if !(saa[0].Coefficients < saa[1].Coefficients && saa[1].Coefficients < saa[2].Coefficients) {
		t.Fatalf("SAA size not increasing: %+v", saa)
	}
	// CSA at Z=1 is much smaller than SAA at M=40.
	if csa[0].Coefficients*5 > saa[2].Coefficients {
		t.Fatalf("CSA (%d) not ≪ SAA (%d)", csa[0].Coefficients, saa[2].Coefficients)
	}
	out := RenderSizes(recs)
	if !strings.Contains(out, "SAA") || !strings.Contains(out, "CSA") {
		t.Fatal("render missing formulations")
	}
}

func TestDescribeWorkloads(t *testing.T) {
	out, err := DescribeWorkloads(tinyConfig(), workload.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"galaxy", "portfolio", "tpch", "Q1", "Q8", "INFEASIBLE", "WITH PROBABILITY"} {
		if !strings.Contains(out, want) {
			t.Fatalf("description missing %q", want)
		}
	}
}

func TestBuildInstanceUnknown(t *testing.T) {
	if _, err := DescribeWorkloads(tinyConfig(), []string{"nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestMatchQuery(t *testing.T) {
	if !matchQuery("Q1", nil) || !matchQuery("Q1", []string{"q1"}) || matchQuery("Q1", []string{"Q2"}) {
		t.Fatal("matchQuery wrong")
	}
}
