package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42)
	b := NewStream(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestStreamIndependenceAcrossSeeds(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical 64-bit draws", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	s := NewStream(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed = %d, want %d", i, got, first[i])
		}
	}
}

func TestReseedClearsNormalSpare(t *testing.T) {
	s := NewStream(9)
	_ = s.Norm() // caches a spare
	s.Reseed(9)
	a := s.Norm()
	s.Reseed(9)
	b := s.Norm()
	if a != b {
		t.Fatalf("Norm after reseed not deterministic: %v vs %v", a, b)
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 100000; i++ {
		u := s.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestOpenFloat64Range(t *testing.T) {
	s := NewStream(4)
	for i := 0; i < 100000; i++ {
		u := s.OpenFloat64()
		if u <= 0 || u >= 1 {
			t.Fatalf("OpenFloat64 out of (0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := NewStream(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	s := NewStream(6)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		z := s.Norm()
		sum += z
		sumsq += z * z
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	s := NewStream(8)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestIntNBounds(t *testing.T) {
	s := NewStream(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := s.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("IntN(7) value %d count %d far from uniform 10000", v, c)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntN(0) did not panic")
		}
	}()
	NewStream(1).IntN(0)
}

func TestMixDistinctCoordinates(t *testing.T) {
	seen := map[uint64][3]uint64{}
	for a := uint64(0); a < 20; a++ {
		for b := uint64(0); b < 20; b++ {
			for c := uint64(0); c < 20; c++ {
				h := Mix(a, b, c)
				if prev, dup := seen[h]; dup {
					t.Fatalf("Mix collision: %v and %v both hash to %d", prev, [3]uint64{a, b, c}, h)
				}
				seen[h] = [3]uint64{a, b, c}
			}
		}
	}
}

func TestMixOrderSensitivity(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix is order-insensitive; substreams would collide")
	}
	if Mix(1) == Mix(1, 0) {
		t.Fatal("Mix ignores trailing zero words")
	}
}

func TestSourceDeriveIndependence(t *testing.T) {
	src := NewSource(99)
	opt := src.Derive(1)
	val := src.Derive(2)
	if opt.Base() == val.Base() {
		t.Fatal("derived sources share a base seed")
	}
	a := opt.StreamAt(0, 0, 0)
	b := val.StreamAt(0, 0, 0)
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams from derived sources coincide")
	}
}

func TestStreamAtMatchesSeedAt(t *testing.T) {
	src := NewSource(123)
	s1 := src.StreamAt(1, 2, 3)
	s2 := NewStream(src.SeedAt(1, 2, 3))
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("StreamAt and SeedAt disagree")
		}
	}
}

func TestSeedRowMatchesSeedAt(t *testing.T) {
	f := func(base, attr, group, scen uint64) bool {
		src := NewSource(base)
		return src.Row(attr, group).At(scen) == src.SeedAt(attr, group, scen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the realized substream value at a coordinate does not depend on
// the order in which other coordinates are visited (order independence is the
// linchpin of tuple-wise vs scenario-wise generation equivalence).
func TestCoordinateValueIsPureFunction(t *testing.T) {
	src := NewSource(7)
	f := func(attr, group, scen uint16) bool {
		a := src.StreamAt(uint64(attr), uint64(group), uint64(scen)).Float64()
		// interleave unrelated draws
		_ = src.StreamAt(uint64(attr)+1, uint64(group), uint64(scen)).Float64()
		b := src.StreamAt(uint64(attr), uint64(group), uint64(scen)).Float64()
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUint32BitBalance(t *testing.T) {
	s := NewStream(13)
	ones := make([]int, 32)
	const n = 20000
	for i := 0; i < n; i++ {
		w := s.Uint32()
		for b := 0; b < 32; b++ {
			if w&(1<<b) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		if c < n*4/10 || c > n*6/10 {
			t.Fatalf("bit %d set in %d/%d draws; generator is biased", b, c, n)
		}
	}
}

func TestSplitSourcesAreIndependentAndDeterministic(t *testing.T) {
	src := NewSource(99)
	a := src.Split(8)
	b := src.Split(8)
	for i := range a {
		// Deterministic: splitting twice yields the same sources.
		if a[i].Base() != b[i].Base() {
			t.Fatalf("Split not deterministic at %d", i)
		}
		// Distinct from each other and from the parent.
		if a[i].Base() == src.Base() {
			t.Fatalf("split source %d equals parent", i)
		}
		for j := i + 1; j < len(a); j++ {
			if a[i].Base() == a[j].Base() {
				t.Fatalf("split sources %d and %d collide", i, j)
			}
		}
	}
	// Streams from different splits should decorrelate: crude check that
	// first draws are not all equal.
	v0 := a[0].StreamAt(0, 0, 0).Float64()
	distinct := false
	for i := 1; i < len(a); i++ {
		if a[i].StreamAt(0, 0, 0).Float64() != v0 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("split sources produce identical streams")
	}
}

// eagerNormal is the reference Box-Muller transform: both variates of a pair
// computed up front. It draws from its own Stream, whose spare it never
// touches.
type eagerNormal struct {
	s        *Stream
	spare    float64
	hasSpare bool
}

func (e *eagerNormal) reseed(seed uint64) {
	e.s.Reseed(seed)
	e.hasSpare = false
}

func (e *eagerNormal) norm() float64 {
	if e.hasSpare {
		e.hasSpare = false
		return e.spare
	}
	for {
		u := e.s.OpenFloat64()
		v := e.s.Float64()
		r := math.Sqrt(-2 * math.Log(u))
		theta := 2 * math.Pi * v
		z0 := r * math.Cos(theta)
		z1 := r * math.Sin(theta)
		if math.IsInf(z0, 0) || math.IsNaN(z0) {
			continue
		}
		e.spare, e.hasSpare = z1, true
		return z0
	}
}

// TestLazySpareMatchesEager: over random interleavings of Reseed, Norm and
// Float64, the lazily computed spare is bit for bit the eager one, and the
// two streams never drift apart.
func TestLazySpareMatchesEager(t *testing.T) {
	ops := NewStream(11)
	lazy, eager := NewStream(1), &eagerNormal{s: NewStream(1)}
	for i := 0; i < 200000; i++ {
		switch op := ops.IntN(8); {
		case op == 0:
			seed := ops.Uint64()
			lazy.Reseed(seed)
			eager.reseed(seed)
		case op == 1:
			if a, b := lazy.Float64(), eager.s.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("op %d: Float64 %v, eager stream %v", i, a, b)
			}
		default:
			if a, b := lazy.Norm(), eager.norm(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("op %d: Norm %v, eager %v", i, a, b)
			}
		}
	}
}

// reseedBySteps is Reseed's warm-up taken one step at a time: two discarded
// Uint64 draws.
func reseedBySteps(seed uint64) *Stream {
	s := &Stream{}
	sm := seed
	s.core.state = splitmix64(&sm)
	s.core.inc = splitmix64(&sm) | 1
	s.Uint64()
	s.Uint64()
	return s
}

// TestReseedJumpMatchesSteps: the one-jump warm-up leaves the same state as
// four generator steps, and the streams draw the same 64 values after it,
// over 10⁵ random seeds and a few edge seeds.
func TestReseedJumpMatchesSteps(t *testing.T) {
	seeds := NewStream(17)
	s := &Stream{}
	for i := 0; i < 100000; i++ {
		seed := seeds.Uint64()
		switch i {
		case 0:
			seed = 0
		case 1:
			seed = math.MaxUint64
		}
		want := reseedBySteps(seed)
		s.Reseed(seed)
		if s.core != want.core {
			t.Fatalf("seed %#x: state %#x inc %#x, stepped %#x inc %#x", seed, s.core.state, s.core.inc, want.core.state, want.core.inc)
		}
		for k := 0; k < 64; k++ {
			if a, b := s.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %#x draw %d: %#x, stepped %#x", seed, k, a, b)
			}
		}
	}
}

// TestCoreMatchesStream: over 10⁵ seeds, the core Seeded returns draws what
// a reseeded Stream draws, bit for bit: Uint32, Uint64, Float64, the
// uniform OpenFloat64 takes when it is not 0, and Norm's first variate,
// after which both draw the same words. SeedRow.Core is Seeded of At.
func TestCoreMatchesStream(t *testing.T) {
	seeds := NewStream(23)
	src := NewSource(5)
	s := &Stream{}
	for i := 0; i < 100000; i++ {
		row := src.Row(uint64(i%7), uint64(i))
		scen := seeds.Uint64()
		if i == 0 {
			scen = math.MaxUint64
		}
		c := row.Core(scen)
		if want := Seeded(row.At(scen)); c != want {
			t.Fatalf("scenario %#x: SeedRow.Core %+v, Seeded(At) %+v", scen, c, want)
		}
		s.Reseed(row.At(scen))
		switch i % 4 {
		case 0:
			if a, b := c.Uint32(), s.Uint32(); a != b {
				t.Fatalf("draw %d: core Uint32 %#x, stream %#x", i, a, b)
			}
			if a, b := c.Uint64(), s.Uint64(); a != b {
				t.Fatalf("draw %d: core Uint64 %#x, stream %#x", i, a, b)
			}
		case 1:
			if a, b := c.Float64(), s.Float64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("draw %d: core Float64 %v, stream %v", i, a, b)
			}
		case 2:
			u := c.Float64()
			if !(u > 0) {
				t.Fatalf("draw %d: a uniform of 0 from a hashed seed", i)
			}
			if b := s.OpenFloat64(); math.Float64bits(u) != math.Float64bits(b) {
				t.Fatalf("draw %d: core uniform %v, stream OpenFloat64 %v", i, u, b)
			}
		case 3:
			z, ok := c.Norm()
			if !ok {
				t.Fatalf("draw %d: core Norm would draw again", i)
			}
			if b := s.Norm(); math.Float64bits(z) != math.Float64bits(b) {
				t.Fatalf("draw %d: core Norm %v, stream %v", i, z, b)
			}
			s.hasSpare = false // the spare is the stream's, not the core's
		}
		for k := 0; k < 4; k++ {
			if a, b := c.Uint32(), s.Uint32(); a != b {
				t.Fatalf("draw %d: core and stream apart after %d words: %#x, %#x", i, k, a, b)
			}
		}
	}
}

// TestCoreRedraws drives the draws where Stream draws again, which no seed
// reaches: a first uniform of 0 and a non-finite Box–Muller result. A row
// kernel reads them off the core and samples that one value from a Stream,
// which draws past them.
func TestCoreRedraws(t *testing.T) {
	// output(0) = output(1) = 0, so the first Float64 of this state is 0.
	zero := Core{state: 0, inc: 1}
	c := zero
	if u := c.Float64(); u != 0 {
		t.Fatalf("first uniform %v, want 0", u)
	}
	c = zero
	if _, ok := c.Norm(); ok {
		t.Fatal("Norm over a first uniform of 0 reported no redraw")
	}
	// The stream skips the zero: OpenFloat64 is the second uniform, and
	// Norm the pair of the second and third.
	past := zero
	past.Float64()
	wantU := past
	u := wantU.Float64()
	if got := (&Stream{core: zero}).OpenFloat64(); math.Float64bits(got) != math.Float64bits(u) {
		t.Fatalf("stream OpenFloat64 %v, want the second uniform %v", got, u)
	}
	wantZ, ok := past.Norm()
	if !ok {
		t.Fatal("the second and third uniforms redraw too")
	}
	if got := (&Stream{core: zero}).Norm(); math.Float64bits(got) != math.Float64bits(wantZ) {
		t.Fatalf("stream Norm %v, want the next pair's %v", got, wantZ)
	}
	// The transform itself is non-finite where the check must catch it.
	for _, uv := range [][2]float64{{0, 0}, {0, 0.5}, {math.NaN(), 0.25}, {-1, 0}} {
		if z, _, _ := boxMuller(uv[0], uv[1]); finite(z) {
			t.Fatalf("boxMuller(%v, %v) = %v, finite", uv[0], uv[1], z)
		}
	}
	if z, _, _ := boxMuller(0.5, 0.125); !finite(z) {
		t.Fatalf("boxMuller(0.5, 0.125) = %v, not finite", z)
	}
}
