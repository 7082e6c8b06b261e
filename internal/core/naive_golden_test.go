package core

import (
	"testing"

	"spq/internal/milp"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// workloadSILP builds the SILP of one paper workload query over a small
// instance of that workload.
func workloadSILP(t *testing.T, gen func(workload.Config) *workload.Instance, n int, id string) *translate.SILP {
	t.Helper()
	in := gen(workload.Config{N: n, Seed: 1, MeansM: 200})
	q, ok := in.QueryByID(id)
	if !ok {
		t.Fatalf("no query %s", id)
	}
	silp, err := translate.Build(spaql.MustParse(q.SPaQL), in.Table(q.Table), nil)
	if err != nil {
		t.Fatal(err)
	}
	return silp
}

// naiveOptions bounds each SAA solve by a node budget, so the recorded
// answers cover infeasible and node-capped rounds at test speed.
func naiveOptions(maxM int) func() *Options {
	return func() *Options {
		o := smallOptions(11)
		o.ValidationM = 1000
		o.MaxM = maxM
		o.SolverNodes = 2000
		return o
	}
}

// naiveGolden holds Naïve's answers recorded while its scenario rows were
// realized one value at a time, scenario by scenario. The cases cover the three paper workloads — counteracted and supported
// Galaxy constraints, Portfolio's infeasible and feasible rows, TPC-H's
// probability objective — plus a WHERE filter, a general-form aggregate's
// mask, and growth of M across several SAA rounds.
var naiveGolden = []goldenCase{
	{
		name:      "galaxy Q5",
		silp:      func(t *testing.T) *translate.SILP { return workloadSILP(t, workload.Galaxy, 30, "Q5") },
		opts:      naiveOptions(40),
		x:         []uint64{0x4008000000000000, 0x3ff0000000000000, 0, 0, 0, 0x3ff0000000000000, 0, 0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0, 0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		objective: 0x4055c838caab03cf, // 87.128466288573
		surpluses: []uint64{0x3f8a9fbe76c8b440},
		m:         20, feasible: true,
		iters: []goldenIter{
			{10, 0, false, 0x405275df40435a73},
			{20, 0, true, 0x4055c838caab03cf},
		},
	},
	{
		name:      "galaxy Q3",
		silp:      func(t *testing.T) *translate.SILP { return workloadSILP(t, workload.Galaxy, 30, "Q3") },
		opts:      naiveOptions(40),
		x:         []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x4014000000000000, 0, 0, 0, 0},
		objective: 0x403ae8a419e0211c, // 26.908753983706546
		surpluses: []uint64{0x3fb74bc6a7ef9db0},
		m:         10, feasible: true,
		iters: []goldenIter{
			{10, 0, true, 0x403ae8a419e0211c},
		},
	},
	{
		name:      "portfolio Q8",
		silp:      func(t *testing.T) *translate.SILP { return workloadSILP(t, workload.Portfolio, 30, "Q8") },
		opts:      naiveOptions(40),
		x:         []uint64{0, 0, 0, 0, 0, 0, 0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		objective: 0x3f743d030f35e800, // 0.004940998030514621
		surpluses: []uint64{0x3fb26e978d4fdf38},
		m:         10, feasible: true,
		iters: []goldenIter{
			{10, 0, true, 0x3f743d030f35e800},
		},
	},
	{
		name:      "portfolio Q3",
		silp:      func(t *testing.T) *translate.SILP { return workloadSILP(t, workload.Portfolio, 30, "Q3") },
		opts:      naiveOptions(30),
		x:         []uint64{0, 0, 0, 0x4020000000000000, 0, 0x3ff0000000000000, 0, 0x403f000000000000, 0, 0x4000000000000000, 0, 0x4000000000000000, 0, 0, 0, 0, 0, 0},
		objective: 0x3fdf8a94d3575dc0, // 0.4928333343391067
		surpluses: []uint64{0xbfd54fdf3b645a1e},
		m:         30, feasible: false,
		iters: []goldenIter{
			{10, 0, false, 0x3fdf8a94d3575dc0},
			{20, 0, false, 0x3fcaf3143b2fdb00},
			{30, 0, false, 0x3fc9f4fb3d084380},
		},
	},
	{
		name:      "tpch Q6",
		silp:      func(t *testing.T) *translate.SILP { return workloadSILP(t, workload.TPCH, 30, "Q6") },
		opts:      naiveOptions(40),
		x:         []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x3ff0000000000000, 0, 0},
		objective: 0x3ff0000000000000, // 1
		surpluses: []uint64{0x3fa99999999999a0},
		m:         10, feasible: true,
		iters: []goldenIter{
			{10, 0, true, 0x3ff0000000000000},
		},
	},
	{
		name:      "pushdown",
		silp:      func(t *testing.T) *translate.SILP { return portfolioSILP(t, 14, streamParityQuery) },
		opts:      naiveOptions(40),
		x:         []uint64{0, 0, 0, 0, 0, 0, 0x4018000000000000, 0, 0, 0, 0},
		objective: 0x4029333333333334, // 12.6
		surpluses: []uint64{0x3fc9999999999998},
		m:         10, feasible: true,
		iters: []goldenIter{
			{10, 0, true, 0x4029333333333334},
		},
	},
	{
		name: "masked",
		silp: func(t *testing.T) *translate.SILP {
			return multiSILP(t, `SELECT PACKAGE(*) AS P FROM assets SUCH THAT
	COUNT(*) BETWEEN 1 AND 4 AND
	(SELECT SUM(risk) WHERE cost >= 40 FROM P) <= 1.5 WITH PROBABILITY >= 0.6
	MAXIMIZE EXPECTED SUM(gain)`)
		},
		opts:      naiveOptions(40),
		x:         []uint64{0, 0, 0, 0x4010000000000000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		objective: 0x4016666666666666, // 5.6
		surpluses: []uint64{0x3fd999999999999a},
		m:         10, feasible: true,
		iters: []goldenIter{
			{10, 0, true, 0x4016666666666666},
		},
	},
}

// TestNaiveGolden asserts that Naïve reproduces the recorded answers bit
// for bit — package, objective, surpluses, final M and feasibility, and the
// per-iteration trace — for every worker count.
func TestNaiveGolden(t *testing.T) {
	checkGolden(t, naiveGolden, Naive)
}

// TestNaiveHitLimitLaterRound pins that an infeasible Naïve answer reports
// its whole history, not the history as it stood at its best round: here the
// only candidate comes from the first SAA solve, and the M = 20 solve that
// follows runs out of nodes without one. HitLimit must see that round.
func TestNaiveHitLimitLaterRound(t *testing.T) {
	o := naiveOptions(20)()
	o.SolverNodes = 1000
	sol, err := Naive(workloadSILP(t, workload.Portfolio, 30, "Q3"), o)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Feasible || sol.M != 20 {
		t.Fatalf("feasible=%v M=%d, want an infeasible answer at M=20", sol.Feasible, sol.M)
	}
	if len(sol.Iterations) != 2 {
		t.Fatalf("%d iterations, want both SAA rounds", len(sol.Iterations))
	}
	if st := sol.Iterations[1].SolverStatus; st != milp.StatusLimit {
		t.Fatalf("second round status %v, want the node limit", st)
	}
	if !sol.HitLimit(o) {
		t.Fatal("HitLimit misses the node-capped later round")
	}
}
