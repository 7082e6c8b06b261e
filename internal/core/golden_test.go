package core

import (
	"math"
	"slices"
	"testing"

	"spq/internal/translate"
)

// streamParityQuery exercises WHERE pushdown, a probabilistic constraint,
// and an expected-sum objective in one evaluation.
const streamParityQuery = `SELECT PACKAGE(*) FROM stocks WHERE price <= 80 SUCH THAT
	SUM(price) <= 250 AND
	SUM(gain) >= -4 WITH PROBABILITY >= 0.8
	MAXIMIZE EXPECTED SUM(gain)`

// goldenIter is the recorded (M, Z, feasible, objective bits) of one
// iteration.
type goldenIter struct {
	m, z      int
	feasible  bool
	objective uint64
}

// goldenCase is one recorded SummarySearch evaluation: the query instance,
// its options, and the answer as float64 bit patterns.
type goldenCase struct {
	name      string
	silp      func(t *testing.T) *translate.SILP
	opts      func() *Options
	x         []uint64
	objective uint64
	surpluses []uint64
	m, z      int
	feasible  bool
	iters     []goldenIter
}

// summarySearchGolden holds answers recorded from SummarySearch evaluated
// over fully materialized scenario sets, sequentially. That path no longer
// exists; its answers survive here as data. "grow" grows M from 10 to 30
// and, with a finite ε, keeps searching after its first feasible package,
// so greedy scores, growth and the §5.5 accelerated summaries (its last
// iteration differs without them) all have to match, not only x(0).
var summarySearchGolden = []goldenCase{
	{
		name:      "easy",
		silp:      func(t *testing.T) *translate.SILP { return portfolioSILP(t, 14, easyQuery) },
		opts:      func() *Options { return smallOptions(11) },
		x:         []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0x401c000000000000, 0, 0, 0, 0},
		objective: 0x402d666666666667, // 14.7
		surpluses: []uint64{0x3fc9999999999998},
		m:         10, z: 1, feasible: true,
		iters: []goldenIter{
			{10, 1, true, 0x402d666666666667},
		},
	},
	{
		name:      "pushdown",
		silp:      func(t *testing.T) *translate.SILP { return portfolioSILP(t, 14, streamParityQuery) },
		opts:      func() *Options { return smallOptions(11) },
		x:         []uint64{0, 0, 0, 0, 0, 0, 0x4018000000000000, 0, 0, 0, 0},
		objective: 0x4029333333333334, // 12.6
		surpluses: []uint64{0x3fc9999999999998},
		m:         10, z: 1, feasible: true,
		iters: []goldenIter{
			{10, 1, true, 0x4029333333333334},
		},
	},
	{
		name: "grow",
		silp: func(t *testing.T) *translate.SILP {
			return buildSILP(t, mutablePortfolio(t, 14), `SELECT PACKAGE(*) FROM stocks SUCH THAT
	SUM(price) <= 300 AND
	SUM(gain) >= -4 WITH PROBABILITY >= 0.9
	MAXIMIZE EXPECTED SUM(gain)`)
		},
		opts: func() *Options {
			o := smallOptions(11)
			o.FixedZ = 4
			o.Epsilon = 1
			o.MaxCSAIters = 6
			o.MaxM = 30
			return o
		},
		x:         []uint64{0, 0, 0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0, 0x3ff0000000000000, 0, 0, 0},
		objective: 0x400199999999999a, // 2.2
		surpluses: []uint64{0x3fad5acb6f465090},
		m:         30, z: 4, feasible: true,
		iters: []goldenIter{
			{10, 4, false, 0x402d666666666667},
			{10, 4, false, 0x402d666666666667},
			{10, 4, false, 0x4025333333333334},
			{10, 4, false, 0x4025333333333334},
			{20, 4, false, 0x402d666666666667},
			{20, 4, false, 0x402d666666666667},
			{20, 4, false, 0x402d666666666667},
			{20, 4, false, 0x4020cccccccccccd},
			{30, 4, false, 0x402d666666666667},
			{30, 4, false, 0x402d666666666667},
			{30, 4, true, 0x400199999999999a},
			{30, 4, false, 0x4024666666666667},
		},
	},
	{
		name: "probability objective",
		silp: func(t *testing.T) *translate.SILP {
			return portfolioSILP(t, 14, `SELECT PACKAGE(*) FROM stocks SUCH THAT
	COUNT(*) BETWEEN 1 AND 5 AND
	SUM(gain) >= -20 WITH PROBABILITY >= 0.6
	MAXIMIZE PROBABILITY OF SUM(gain) >= 4`)
		},
		opts: func() *Options {
			o := smallOptions(11)
			o.FixedZ = 2
			return o
		},
		x:         []uint64{0, 0, 0x3ff0000000000000, 0, 0, 0, 0, 0, 0, 0x4010000000000000, 0, 0, 0, 0},
		objective: 0x3fef8d4fdf3b645a, // 0.986
		surpluses: []uint64{0x3fd999999999999a},
		m:         10, z: 2, feasible: true,
		iters: []goldenIter{
			{10, 2, true, 0},
			{10, 2, true, 0x3fef8d4fdf3b645a},
		},
	},
	{
		name:      "two constraints",
		silp:      func(t *testing.T) *translate.SILP { return multiSILP(t, twoConQuery) },
		opts:      func() *Options { return smallOptions(11) },
		x:         []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x4018000000000000, 0, 0},
		objective: 0x4020cccccccccccc, // 8.4
		surpluses: []uint64{0x3fcc962fc962fc98, 0x3fc1bfd44f307824},
		m:         10, z: 1, feasible: true,
		iters: []goldenIter{
			{10, 1, true, 0x4020cccccccccccc},
		},
	},
}

func float64Bits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestSummarySearchGolden asserts that the streamed pipeline reproduces the
// recorded answers bit for bit — package, objective, surpluses, final M/Z and
// feasibility, and the per-iteration trace — for every worker count.
func TestSummarySearchGolden(t *testing.T) {
	for _, c := range summarySearchGolden {
		for _, workers := range []int{1, 2, 8, -1} {
			opts := c.opts()
			opts.Parallelism = workers
			sol, err := SummarySearch(c.silp(t), opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if got := float64Bits(sol.X); !slices.Equal(got, c.x) {
				t.Fatalf("%s workers=%d: X = %v, want bits %#x", c.name, workers, sol.X, c.x)
			}
			if got := math.Float64bits(sol.Objective); got != c.objective {
				t.Fatalf("%s workers=%d: objective %v (%#x), want %#x", c.name, workers, sol.Objective, got, c.objective)
			}
			if got := float64Bits(sol.Surpluses); !slices.Equal(got, c.surpluses) {
				t.Fatalf("%s workers=%d: surpluses %v, want bits %#x", c.name, workers, sol.Surpluses, c.surpluses)
			}
			if sol.M != c.m || sol.Z != c.z || sol.Feasible != c.feasible {
				t.Fatalf("%s workers=%d: (M,Z,feasible) = (%d,%d,%v), want (%d,%d,%v)",
					c.name, workers, sol.M, sol.Z, sol.Feasible, c.m, c.z, c.feasible)
			}
			got := make([]goldenIter, len(sol.Iterations))
			for i, it := range sol.Iterations {
				got[i] = goldenIter{it.M, it.Z, it.Feasible, math.Float64bits(it.Objective)}
			}
			if !slices.Equal(got, c.iters) {
				t.Fatalf("%s workers=%d: iterations %+v, want %+v", c.name, workers, got, c.iters)
			}
		}
	}
}
