package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"spq/internal/dist"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// exprValue realizes an inner function at one coordinate, one Relation.Value
// per term: the per-value oracle row-wise validation must reproduce.
func exprValue(t *testing.T, src rng.Source, rel *relation.Relation, e spaql.LinExpr, tuple, scen int) float64 {
	t.Helper()
	v := e.Const
	for _, term := range e.Terms {
		av, err := rel.Value(src, term.Attr, tuple, scen)
		if err != nil {
			t.Fatal(err)
		}
		v += term.Coef * av
	}
	return v
}

// probeByRealize is the ε′ probe as one sequential loop over scenarios,
// realizing every tuple one Relation.Value per term.
func probeByRealize(t *testing.T, r *runner, e spaql.LinExpr) (sLo, sHi float64) {
	t.Helper()
	sLo, sHi = math.Inf(1), math.Inf(-1)
	for j := 0; j < probeScenarios; j++ {
		for i := 0; i < r.silp.N; i++ {
			v := exprValue(t, r.valSrc, r.silp.Rel, e, i, j)
			sLo = math.Min(sLo, v)
			sHi = math.Max(sHi, v)
		}
	}
	return sLo, sHi
}

// validateByValue is out-of-sample validation as one sequential per-value
// loop: per scenario, 0 plus w·x_i over the unmasked package tuples in
// order. Its ε′ comes from probeByRealize through the unchanged bounds.
func validateByValue(t *testing.T, silp *translate.SILP, x []float64, o *Options) *Validation {
	t.Helper()
	r := newRunner(context.Background(), silp, o)
	mhat := r.opts.ValidationM
	count := func(e spaql.LinExpr, mask []bool, geq bool, v float64) int {
		n := 0
		for j := 0; j < mhat; j++ {
			s := 0.0
			for i, xi := range x {
				if xi > 0 && (mask == nil || mask[i]) {
					s += exprValue(t, r.valSrc, silp.Rel, e, i, j) * xi
				}
			}
			if (geq && s >= v) || (!geq && s <= v) {
				n++
			}
		}
		return n
	}
	val := &Validation{Feasible: true}
	for _, pc := range silp.ProbCons {
		frac := float64(count(pc.Expr, pc.Mask, pc.Geq, pc.V)) / float64(mhat)
		val.Surpluses = append(val.Surpluses, frac-pc.P)
		val.CIHalf = append(val.CIHalf, 1.96*math.Sqrt(frac*(1-frac)/float64(mhat)))
		if frac-pc.P < 0 {
			val.Feasible = false
		}
	}
	switch silp.ObjKind {
	case translate.ObjLinear:
		for i, xi := range x {
			if xi > 0 {
				val.Objective += silp.ObjCoefs[i] * xi
			}
		}
		r.sLo, r.sHi = probeByRealize(t, r, silp.ObjExpr)
		r.probed = true
	case translate.ObjProbability:
		val.Objective = float64(count(silp.ObjExpr, silp.ObjMask, silp.ObjGeq, silp.ObjV)) / float64(mhat)
	}
	eps, err := r.epsUpper(r.ctx, val.Objective)
	if err != nil {
		t.Fatal(err)
	}
	val.EpsUpper = eps
	return val
}

func assertSameValidation(t *testing.T, label string, got, want *Validation) {
	t.Helper()
	same := got.Feasible == want.Feasible &&
		sameBits(got.Objective, want.Objective) && sameBits(got.EpsUpper, want.EpsUpper) &&
		len(got.Surpluses) == len(want.Surpluses) && len(got.CIHalf) == len(want.CIHalf)
	for k := range want.Surpluses {
		same = same && sameBits(got.Surpluses[k], want.Surpluses[k]) && sameBits(got.CIHalf[k], want.CIHalf[k])
	}
	if !same {
		t.Fatalf("%s: validation %+v, per-value loop %+v", label, got, want)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestValidateMatchesPerValueLoop: row-wise validation reproduces the
// per-value loop bit for bit — surpluses, CI half-widths, objective and ε′ —
// with masks, two constraints, a probability objective, and at every worker
// count.
func TestValidateMatchesPerValueLoop(t *testing.T) {
	queries := map[string]string{
		"two constraints": twoConQuery,
		"masked": `SELECT PACKAGE(*) AS P FROM assets SUCH THAT
			COUNT(*) BETWEEN 1 AND 4 AND
			(SELECT SUM(risk) WHERE cost >= 40 FROM P) <= 1.5 WITH PROBABILITY >= 0.6
			MAXIMIZE EXPECTED SUM(gain)`,
		"probability objective": `SELECT PACKAGE(*) FROM assets SUCH THAT
			COUNT(*) <= 4 AND SUM(risk) <= 3 WITH PROBABILITY >= 0.5
			MAXIMIZE PROBABILITY OF SUM(gain) >= 1`,
		"deterministic constraints only": `SELECT PACKAGE(*) FROM assets SUCH THAT
			SUM(cost) <= 100 MAXIMIZE EXPECTED SUM(gain)`,
	}
	for name, q := range queries {
		silp := multiSILP(t, q)
		x := make([]float64, silp.N)
		x[0], x[3], x[4], x[9], x[13] = 1, 2, 1, 3, 1
		opts := smallOptions(1)
		opts.ValidationM = 3001 // shards and row chunks end unevenly
		want := validateByValue(t, silp, x, opts)
		for _, workers := range []int{1, 2, 8} {
			o := *opts
			o.Parallelism = workers
			got, err := Validate(context.Background(), silp, x, &o)
			if err != nil {
				t.Fatal(err)
			}
			assertSameValidation(t, name, got, want)
		}
	}
}

// probeSILP is a linear stochastic objective over 300 tuples with heavy
// (Pareto α = 1) tails, a stochastic attribute that is always zero, and a
// second tail attribute, for expressions that reach −0, ±Inf and NaN. A
// non-empty obj replaces the objective's inner function; each call builds a
// fresh SILP, because a SILP memoises its probed range.
func probeSILP(t *testing.T, vg relation.VGFunc, obj spaql.LinExpr) *translate.SILP {
	t.Helper()
	const n = 300
	rel := relation.New("g", n)
	tails := make([]dist.Dist, n)
	for i := range tails {
		tails[i] = dist.Pareto{Sigma: 1 + float64(i%7), Alpha: 1}
	}
	for k, name := range []string{"flux", "flux2"} {
		if err := rel.AddStoch(name, &relation.IndependentVG{AttrID: uint64(10 + k), Dists: tails}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rel.AddStoch("zero", &relation.IndependentVG{AttrID: 12, Dists: []dist.Dist{dist.Degenerate{}}}); err != nil {
		t.Fatal(err)
	}
	if vg != nil {
		if err := rel.AddStoch("foreign", vg); err != nil {
			t.Fatal(err)
		}
	}
	rel.ComputeMeans(rng.NewSource(3), 20)
	silp, err := translate.Build(spaql.MustParse(`SELECT PACKAGE(*) FROM g SUCH THAT
		COUNT(*) <= 3 MAXIMIZE EXPECTED SUM(flux)`), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Terms) > 0 {
		silp.ObjExpr = obj
	}
	return silp
}

// TestProbeMatchesRealizeLoop: the tuple-sharded probe finds the same
// extremes, bit for bit, as the sequential per-value loop, including
// expressions whose values are −0, ±Inf or NaN.
func TestProbeMatchesRealizeLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	exprs := map[string]spaql.LinExpr{
		"pareto tails":  {Terms: []spaql.Term{{Coef: 1, Attr: "flux"}}},
		"negative zero": {Const: negZero, Terms: []spaql.Term{{Coef: -1, Attr: "zero"}}},
		"infinities":    {Terms: []spaql.Term{{Coef: 1e308, Attr: "flux"}, {Coef: -1e308, Attr: "flux2"}}},
		"mixed":         {Const: 2, Terms: []spaql.Term{{Coef: -3, Attr: "flux2"}, {Coef: 1, Attr: "zero"}, {Coef: 0.5, Attr: "flux"}}},
	}
	for name, e := range exprs {
		wantLo, wantHi := probeByRealize(t, newRunner(context.Background(), probeSILP(t, nil, e), smallOptions(1)), e)
		for _, workers := range []int{1, 2, 8} {
			o := smallOptions(1)
			o.Parallelism = workers
			lo, hi, err := newRunner(context.Background(), probeSILP(t, nil, e), o).probeObjectiveRange(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
				t.Fatalf("%s workers=%d: range [%v, %v], loop [%v, %v]", name, workers, lo, hi, wantLo, wantHi)
			}
		}
	}
	if lo, hi := probeByRealize(t, newRunner(context.Background(), probeSILP(t, nil, spaql.LinExpr{}), nil), exprs["negative zero"]); !math.Signbit(lo) || !math.Signbit(hi) {
		t.Fatalf("negative-zero expression probed [%v, %v], want [−0, −0]", lo, hi)
	}
}

// cancellingVG cancels a context on its n-th realization.
type cancellingVG struct {
	calls  atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (vg *cancellingVG) Value(src rng.Source, tuple, scenario int) float64 {
	if vg.calls.Add(1) == vg.n {
		vg.cancel()
	}
	return float64(tuple)
}

func (vg *cancellingVG) ExactMean(int) float64 { return math.NaN() }

// TestProbeCancellation: the probe observes its context — up front and in
// the middle of the scan — returns the context's error through validation,
// and neither caches the cut-short probe as an unusable range nor memoises
// it on the SILP.
func TestProbeCancellation(t *testing.T) {
	silp := probeSILP(t, nil, spaql.LinExpr{})
	x := make([]float64, silp.N)
	x[1] = 1
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Validate(cancelled, silp, x, smallOptions(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Validate under a cancelled context: err = %v, want context.Canceled", err)
	}

	vg := &cancellingVG{n: 1000, cancel: func() {}}
	foreign := spaql.LinExpr{Terms: []spaql.Term{{Coef: 1, Attr: "foreign"}}}
	for _, workers := range []int{1, 2} {
		silp := probeSILP(t, vg, foreign)
		ctx, cancel := context.WithCancel(context.Background())
		vg.calls.Store(0)
		vg.cancel = cancel
		o := smallOptions(1)
		o.Parallelism = workers
		r := newRunner(ctx, silp, o)
		if _, err := r.validate(x); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-probe cancel: err = %v, want context.Canceled", workers, err)
		}
		if got := vg.calls.Load(); got >= int64(silp.N*probeScenarios) {
			t.Fatalf("workers=%d: the probe realized all %d values after the cancel", workers, got)
		}
		if r.probed {
			t.Fatalf("workers=%d: a cancelled probe was cached as [%v, %v]", workers, r.sLo, r.sHi)
		}
		if lo, hi, ok := silp.ObjRange(r.opts.ValidationSeed); ok {
			t.Fatalf("workers=%d: a cancelled probe was memoised as [%v, %v]", workers, lo, hi)
		}
		// The same runner, no longer cancelled, probes for real.
		vg.cancel = func() {}
		r.ctx = context.Background()
		val, err := r.validate(x)
		if err != nil {
			t.Fatal(err)
		}
		want := validateByValue(t, silp, x, o)
		assertSameValidation(t, "after cancel", val, want)
		if r.sLo != 0 || r.sHi != float64(silp.N-1) {
			t.Fatalf("workers=%d: range [%v, %v], want [0, %d]", workers, r.sLo, r.sHi, silp.N-1)
		}
		if lo, hi, ok := silp.ObjRange(r.opts.ValidationSeed); !ok || lo != r.sLo || hi != r.sHi {
			t.Fatalf("workers=%d: memoised range [%v, %v] (%t), want the probed one", workers, lo, hi, ok)
		}
	}
}

// TestValidateRepeatAllocatesNoScores: a runner validates a repeated package
// from memory, allocating nothing, and reuses its M̂-sized score buffer for
// new packages instead of allocating one per call.
func TestValidateRepeatAllocatesNoScores(t *testing.T) {
	silp := multiSILP(t, twoConQuery)
	for _, workers := range []int{1, 2} {
		opts := smallOptions(1)
		opts.ValidationM = 20000
		opts.Parallelism = workers
		r := newRunner(context.Background(), silp, opts)
		x := make([]float64, silp.N)
		x[2] = 1
		first, err := r.validate(x)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if v, _ := r.validate(x); v != first {
				t.Fatal("repeat validation recomputed the verdict")
			}
		}); n != 0 {
			t.Fatalf("workers=%d: repeat validate allocates %v objects, want 0", workers, n)
		}
		// Same support, another multiplicity: a different package.
		x2 := append([]float64(nil), x...)
		x2[2] = 2
		got, err := r.validate(x2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Validate(context.Background(), silp, x2, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameValidation(t, "multiplicity 2", got, want)

		const packages = 12
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for p := 0; p < packages; p++ {
			y := make([]float64, silp.N)
			y[p], y[(p+5)%silp.N] = 1, float64(1+p%2)
			if _, err := r.validate(y); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / packages
		if scoresBytes := float64(8 * opts.ValidationM); perCall > scoresBytes/4 {
			t.Fatalf("workers=%d: a new package's validation allocates %.0f B, want far below the %.0f B score buffer", workers, perCall, scoresBytes)
		}
	}
}
