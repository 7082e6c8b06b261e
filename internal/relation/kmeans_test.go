package relation

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"spq/internal/rng"
)

// lloydGroups is kmeansGroups as it was before its assignment step learnt
// to skip centroids: every tuple is compared with every centroid, in id
// order. It is the oracle for TestKMeansMatchesLloyd.
func lloydGroups(features [][]float64, n, tau, iters int, seed uint64) (groupOf []int, groups [][]int, medoids []int) {
	k := (n + tau - 1) / tau
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dims := len(features)
	// Normalize features to [0, 1] so distances are scale-free.
	norm := make([][]float64, dims)
	for d, col := range features {
		lo, hi := col[0], col[0]
		for _, v := range col {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		span := hi - lo
		if span < 1e-12 {
			span = 1
		}
		nc := make([]float64, n)
		for i, v := range col {
			nc[i] = (v - lo) / span
		}
		norm[d] = nc
	}
	dist2 := func(i int, centroid []float64) float64 {
		s := 0.0
		for d := 0; d < dims; d++ {
			diff := norm[d][i] - centroid[d]
			s += diff * diff
		}
		return s
	}
	// Seeded distinct random initialization.
	st := rng.NewStream(rng.Mix(seed, 0x5ce7c4))
	centroids := make([][]float64, k)
	used := map[int]bool{}
	for c := 0; c < k; c++ {
		var pick int
		for {
			pick = st.IntN(n)
			if !used[pick] {
				used[pick] = true
				break
			}
		}
		centroids[c] = make([]float64, dims)
		for d := 0; d < dims; d++ {
			centroids[c][d] = norm[d][pick]
		}
	}
	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := dist2(i, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		for c := range centroids {
			for d := range centroids[c] {
				centroids[c][d] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for d := 0; d < dims; d++ {
				centroids[c][d] += norm[d][i]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				pick := st.IntN(n)
				for d := 0; d < dims; d++ {
					centroids[c][d] = norm[d][pick]
				}
				continue
			}
			for d := 0; d < dims; d++ {
				centroids[c][d] /= float64(counts[c])
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	groupOf = make([]int, n)
	members := map[int][]int{}
	for i, c := range assign {
		members[c] = append(members[c], i)
	}
	for c := 0; c < k; c++ {
		cluster := members[c]
		if len(cluster) == 0 {
			continue
		}
		for start := 0; start < len(cluster); start += tau {
			end := start + tau
			if end > len(cluster) {
				end = len(cluster)
			}
			chunk := cluster[start:end]
			gid := len(groups)
			groups = append(groups, chunk)
			// Medoid: chunk member closest to the centroid.
			best, bestD := chunk[0], math.Inf(1)
			for _, i := range chunk {
				if d := dist2(i, centroids[c]); d < bestD {
					best, bestD = i, d
				}
			}
			medoids = append(medoids, best)
			for _, i := range chunk {
				groupOf[i] = gid
			}
		}
	}
	return groupOf, groups, medoids
}

// kmeansInstance draws one random clustering input: n tuples over dims
// feature columns, each column Gaussian, quantised to three levels,
// constant, clustered around a few centres with near-duplicate points
// (so centroids nearly coincide), or so small that squared distances are
// subnormal or zero. With a small
// probability one column carries a NaN or an infinity.
func kmeansInstance(s *rng.Stream, n, dims int) [][]float64 {
	cols := make([][]float64, dims)
	for d := range cols {
		col := make([]float64, n)
		switch s.IntN(5) {
		case 0: // Gaussian
			for i := range col {
				col[i] = s.Norm()
			}
		case 1: // quantised: duplicate points, equal distances
			for i := range col {
				col[i] = math.Max(-1, math.Min(1, math.Round(s.Norm())))
			}
		case 2: // all identical
			for i := range col {
				col[i] = 3.5
			}
		case 3: // near-duplicates around a few centres
			centres := 1 + s.IntN(4)
			for i := range col {
				col[i] = float64(s.IntN(centres)) + 1e-13*s.Norm()
				if s.IntN(4) == 0 {
					col[i] = math.Nextafter(col[i], math.Inf(1))
				}
			}
		case 4: // tiny span: squared distances subnormal or zero
			scale := []float64{1e-160, 1e-310}[s.IntN(2)]
			for i := range col {
				col[i] = scale * float64(s.IntN(5))
			}
		}
		cols[d] = col
	}
	if s.IntN(12) == 0 {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[s.IntN(3)]
		cols[s.IntN(dims)][s.IntN(n)] = bad
	}
	return cols
}

// TestKMeansMatchesLloyd runs the pruned k-means and the full-scan oracle on
// random instances and requires the same groups, members and medoids.
func TestKMeansMatchesLloyd(t *testing.T) {
	s := rng.NewStream(0x11c9d)
	const instances = 320
	for inst := 0; inst < instances; inst++ {
		// n log-uniform in [1, 3000]; τ in [1, 100], raised where the
		// oracle's n·k scan would make the instance slow.
		n := int(math.Exp(s.Float64() * math.Log(3000)))
		n = max(1, min(n, 3000))
		if inst < 4 {
			n = []int{1, 2, 3000, 3000}[inst]
		}
		tau := 1 + s.IntN(100)
		tau = max(tau, (n*n+1_999_999)/2_000_000)
		dims := 1 + s.IntN(6)
		iters := []int{1, 12}[s.IntN(2)]
		seed := s.Uint64()
		cols := kmeansInstance(s, n, dims)

		wantOf, wantGroups, wantMedoids := lloydGroups(cols, n, tau, iters, seed)
		gotOf, gotGroups, gotMedoids := kmeansGroups(cols, n, tau, iters, seed)
		if !slices.Equal(gotOf, wantOf) || !slices.Equal(gotMedoids, wantMedoids) ||
			!slices.EqualFunc(gotGroups, wantGroups, slices.Equal[[]int]) {
			t.Fatalf("instance %d (n=%d dims=%d τ=%d iters=%d seed=%#x): pruned k-means differs from Lloyd's\n"+
				"medoids %v\nwant    %v", inst, n, dims, tau, iters, seed, gotMedoids, wantMedoids)
		}
	}
}

// BenchmarkKMeansGroups clusters n Gaussian tuples over 3 features with
// τ = 64 and the default 12 iterations.
func BenchmarkKMeansGroups(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s := rng.NewStream(0xbe7c)
			cols := make([][]float64, 3)
			for d := range cols {
				cols[d] = make([]float64, n)
				for i := range cols[d] {
					cols[d][i] = s.Norm()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmeansGroups(cols, n, 64, 12, 1)
			}
		})
	}
}
