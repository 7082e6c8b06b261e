package remote_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/milp"
	"spq/internal/remote"
)

// TestWireSolutionRoundTrip renders a solution with every field set, sends
// it through JSON as a worker's raw payload travels, and rebuilds it: all
// of it must come back except what wire.go names as not carried (the
// wall-clock timings and the process-local warm-start state).
func TestWireSolutionRoundTrip(t *testing.T) {
	sol := &core.Solution{
		X: []float64{1, 2, 1.5}, Feasible: true, Objective: 0.1 + 0.2, EpsUpper: 0.03,
		Surpluses: []float64{0.01, -0.02}, SurplusCIHalf: []float64{0.004, 0.005},
		M: 40, Z: 3, TotalTime: 1234567 * time.Microsecond,
		WarmResolve: true, Warm: &core.WarmStart{},
	}
	sol.MILPSolves, sol.MILPNodes, sol.MILPWorkers = 5, 901, 2
	sol.LPIters, sol.WarmStarts, sol.DegenPivots, sol.BoundFlips = 4321, 800, 77, 13
	sol.PresolveRows, sol.PresolveCols = 19, 2300
	for i := 1; i <= 2; i++ {
		it := core.Iteration{
			M: 20 * i, Z: i, SolverStatus: milp.Status(i), Coefficients: 1000 * i,
			SolveTime: time.Duration(i) * time.Millisecond, ValidateTime: time.Duration(i) * time.Microsecond,
			Feasible: true, Objective: float64(i) / 3, Surpluses: []float64{0.1 * float64(i), -0.5},
		}
		it.Nodes, it.LPIters, it.WarmStarts, it.DegenPivots = 400*i, 2000*i, 390*i, 30*i
		it.BoundFlips, it.PresolveRows, it.PresolveCols = 6*i, 9*i, 1100*i
		sol.Iterations = append(sol.Iterations, it)
	}
	assertNoZeroField(t, reflect.ValueOf(*sol), "Solution")

	raw, err := json.Marshal(remote.ToWireSolution(sol))
	if err != nil {
		t.Fatal(err)
	}
	var sr client.SolveResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	// Peers and cached payloads of other versions read these keys.
	var top map[string]json.RawMessage
	var iters []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["iterations"], &iters); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		obj  map[string]json.RawMessage
		want string
	}{
		{top, "bound_flips degen_pivots eps_upper feasible iterations lp_iters m milp_nodes milp_solves milp_workers " +
			"objective presolve_cols presolve_rows surplus_ci_half surpluses total_ms warm_starts x z"},
		{iters[0], "bound_flips coefficients degen_pivots feasible lp_iters m nodes objective presolve_cols presolve_rows " +
			"status surpluses warm_starts z"},
	} {
		var names []string
		for k := range c.obj {
			names = append(names, k)
		}
		sort.Strings(names)
		if got := strings.Join(names, " "); got != c.want {
			t.Fatalf("wire keys:\n got %s\nwant %s", got, c.want)
		}
	}
	got, err := remote.FromWireSolution(&sr, len(sol.X))
	if err != nil {
		t.Fatal(err)
	}

	want := *sol
	want.TotalTime = sol.TotalTime.Truncate(time.Millisecond)
	want.Warm, want.WarmResolve = nil, false
	want.Iterations = append([]core.Iteration(nil), sol.Iterations...)
	for i := range want.Iterations {
		want.Iterations[i].SolveTime, want.Iterations[i].ValidateTime = 0, 0
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v\nwire %s", got, &want, raw)
	}
}

// assertNoZeroField fails on any zero field of v, recursing into structs
// and slices, so a field added to the solution later must join the test.
func assertNoZeroField(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch {
	case v.IsZero():
		t.Fatalf("%s is zero: give it a value", path)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertNoZeroField(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			assertNoZeroField(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	}
}
