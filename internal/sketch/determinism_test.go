package sketch

// Determinism guarantees of the partition-parallel pipeline:
//
//  1. for a fixed shard count, every worker count returns bit-identical
//     packages (shard composition, per-shard seeds, and the merge order are
//     all independent of scheduling);
//  2. a 1-shard pipeline reproduces the pre-refactor single-solve
//     sketch exactly (verified against legacySolve below, a
//     line-for-line transcription of the pre-pipeline implementation).

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"spq/internal/core"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// sameSolution compares the result-relevant fields of two solutions exactly
// (bit-level for floats).
func sameSolution(t *testing.T, label string, a, b *core.Solution) {
	t.Helper()
	if a.Feasible != b.Feasible {
		t.Fatalf("%s: feasibility %v vs %v", label, a.Feasible, b.Feasible)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		t.Fatalf("%s: objective %v vs %v", label, a.Objective, b.Objective)
	}
	if a.M != b.M || a.Z != b.Z {
		t.Fatalf("%s: (M,Z) = (%d,%d) vs (%d,%d)", label, a.M, a.Z, b.M, b.Z)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: |X| = %d vs %d", label, len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("%s: X[%d] = %v vs %v", label, i, a.X[i], b.X[i])
		}
	}
	if len(a.Surpluses) != len(b.Surpluses) {
		t.Fatalf("%s: |Surpluses| = %d vs %d", label, len(a.Surpluses), len(b.Surpluses))
	}
	for i := range a.Surpluses {
		if math.Float64bits(a.Surpluses[i]) != math.Float64bits(b.Surpluses[i]) {
			t.Fatalf("%s: surplus[%d] = %v vs %v", label, i, a.Surpluses[i], b.Surpluses[i])
		}
	}
}

func TestSketchWorkerCountBitIdentical(t *testing.T) {
	rel := sketchRelation(t, 320)
	q := spaql.MustParse(sketchQuery)
	base := &Options{GroupSize: 16, Seed: 2, Shards: 4, Workers: 1}

	ref, refStats, err := solveQuery(q, rel, coreOpts(), base)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Shards != 4 {
		t.Fatalf("sketch ran %d shards, want 4", refStats.Shards)
	}
	for _, workers := range []int{2, 8, -1} {
		opts := *base
		opts.Workers = workers
		sol, stats, err := solveQuery(q, rel, coreOpts(), &opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("workers=%d", workers), sol, ref)
		if stats.Candidates != refStats.Candidates || stats.Groups != refStats.Groups {
			t.Fatalf("workers=%d changed pipeline shape: %+v vs %+v", workers, stats, refStats)
		}
	}
}

func TestSketchOneShardMatchesLegacy(t *testing.T) {
	for _, n := range []int{160, 240} {
		rel := sketchRelation(t, n)
		q := spaql.MustParse(sketchQuery)
		sopts := &Options{GroupSize: 16, Seed: 2}

		got, gotStats, err := solveQuery(q, rel, coreOpts(), sopts)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := legacySolve(q, rel, coreOpts(), sopts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("n=%d", n), got, want)
		if got.Feasible != want.Feasible || gotStats.Candidates != wantStats.Candidates ||
			gotStats.Groups != wantStats.Groups || gotStats.FellBack != wantStats.FellBack {
			t.Fatalf("n=%d: stats diverged: %+v vs %+v", n, gotStats, wantStats)
		}
	}
}

func TestSketchShardedBudgetHolds(t *testing.T) {
	rel := sketchRelation(t, 320)
	q := spaql.MustParse(sketchQuery)
	sol, stats, err := solveQuery(q, rel, coreOpts(), &Options{GroupSize: 16, Seed: 2, Shards: 8, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("sharded sketch infeasible: %+v", sol.Surpluses)
	}
	if stats.FellBack {
		t.Fatal("sharded sketch fell back on an easy instance")
	}
	price, _ := rel.Det("price")
	total := 0.0
	for i, x := range sol.X {
		total += price[i] * x
	}
	if total > 200+1e-9 {
		t.Fatalf("budget violated: %v", total)
	}
}

// --- Pre-refactor reference implementation ------------------------------
//
// legacySolve and legacyPartition transcribe the pre-pipeline sketch.Solve
// (single medoid solve over all groups, then refine) exactly, so the
// 1-shard pipeline can be checked against the behaviour it must preserve.

// legacyKMeansIters is the Lloyd iteration bound every partitioning uses
// (relation's kmeansIters).
const legacyKMeansIters = 12

type legacyPartitioning struct {
	Group   []int
	Members [][]int
	Medoids []int
}

func legacyPartition(features [][]float64, n, tau, iters int, seed uint64) *legacyPartitioning {
	if n == 0 {
		return &legacyPartitioning{}
	}
	k := (n + tau - 1) / tau
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dims := len(features)
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
	p := &legacyPartitioning{Group: make([]int, n)}
	members := map[int][]int{}
	for i, c := range assign {
		members[c] = append(members[c], i)
	}
	for c := 0; c < k; c++ {
		group := members[c]
		if len(group) == 0 {
			continue
		}
		for start := 0; start < len(group); start += tau {
			end := start + tau
			if end > len(group) {
				end = len(group)
			}
			chunk := group[start:end]
			gid := len(p.Members)
			p.Members = append(p.Members, chunk)
			best, bestD := chunk[0], math.Inf(1)
			for _, i := range chunk {
				if d := dist2(i, centroids[c]); d < bestD {
					best, bestD = i, d
				}
			}
			p.Medoids = append(p.Medoids, best)
			for _, i := range chunk {
				p.Group[i] = gid
			}
		}
	}
	return p
}

func legacyFeatureColumns(silp *translate.SILP) ([][]float64, error) {
	rel := silp.Rel
	seen := map[string]bool{}
	var features [][]float64
	add := func(attr string) error {
		if seen[attr] {
			return nil
		}
		seen[attr] = true
		col, err := rel.Means(attr)
		if err != nil {
			return err
		}
		features = append(features, col)
		return nil
	}
	collect := func(e spaql.LinExpr) error {
		for _, attr := range e.Attrs() {
			if err := add(attr); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range silp.Query.Constraints {
		if err := collect(c.Expr); err != nil {
			return nil, err
		}
	}
	if silp.Query.Objective != nil {
		if err := collect(silp.Query.Objective.Expr); err != nil {
			return nil, err
		}
	}
	if len(features) == 0 {
		return nil, errors.New("sketch: query references no attributes to cluster on")
	}
	return features, nil
}

func legacySolve(q *spaql.Query, rel *relation.Relation, copts *core.Options, sopts *Options) (*core.Solution, *Stats, error) {
	so := sopts.withDefaults()
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		return nil, nil, err
	}
	view := silp.Rel
	n := view.N()
	stats := &Stats{}

	if n <= so.MaxCandidates {
		sol, err := core.SummarySearch(silp, copts)
		stats.FellBack = true
		stats.Candidates = n
		return sol, stats, err
	}

	features, err := legacyFeatureColumns(silp)
	if err != nil {
		return nil, nil, err
	}
	part := legacyPartition(features, n, so.GroupSize, legacyKMeansIters, so.Seed)
	stats.Groups = len(part.Members)
	stats.SketchTuples = len(part.Medoids)

	isMedoid := make([]bool, n)
	for _, m := range part.Medoids {
		isMedoid[m] = true
	}
	groupOfMedoidRow := make([]int, 0, len(part.Medoids))
	for i := 0; i < n; i++ {
		if isMedoid[i] {
			groupOfMedoidRow = append(groupOfMedoidRow, part.Group[i])
		}
	}
	sketchRel, err := view.Select(func(t int) bool { return isMedoid[t] })
	if err != nil {
		return nil, nil, err
	}
	qNoWhere := *q
	qNoWhere.Where = nil
	sketchStart := time.Now()
	sketchSILP, err := translate.Build(&qNoWhere, sketchRel, nil)
	if err != nil {
		return nil, nil, err
	}
	for row, g := range groupOfMedoidRow {
		size := float64(len(part.Members[g]))
		sketchSILP.VarHi[row] = math.Min(sketchSILP.VarHi[row]*size, sketchSILP.VarHi[row]+size*4)
	}
	sketchSol, err := core.SummarySearch(sketchSILP, copts)
	stats.SketchTime = time.Since(sketchStart)
	if err != nil || !sketchSol.Feasible {
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return nil, nil, fmt.Errorf("sketch: sketch phase: %w", err)
		}
		stats.FellBack = true
		refineStart := time.Now()
		sol, err := core.SummarySearch(silp, copts)
		stats.RefineTime = time.Since(refineStart)
		stats.Candidates = n
		return sol, stats, err
	}
	stats.SketchObj = sketchSol.Objective

	type allotment struct {
		group int
		count float64
	}
	var chosen []allotment
	for row, x := range sketchSol.X {
		if x > 0 {
			chosen = append(chosen, allotment{group: groupOfMedoidRow[row], count: x})
		}
	}
	for i := 1; i < len(chosen); i++ {
		for j := i; j > 0 && chosen[j].count > chosen[j-1].count; j-- {
			chosen[j], chosen[j-1] = chosen[j-1], chosen[j]
		}
	}
	inCandidate := make([]bool, n)
	count := 0
	for _, a := range chosen {
		members := part.Members[a.group]
		if count+len(members) > so.MaxCandidates && count > 0 {
			continue
		}
		for _, tup := range members {
			if !inCandidate[tup] {
				inCandidate[tup] = true
				count++
			}
		}
	}
	stats.Candidates = count

	candRel, err := view.Select(func(t int) bool { return inCandidate[t] })
	if err != nil {
		return nil, nil, err
	}
	refineStart := time.Now()
	refineSILP, err := translate.Build(&qNoWhere, candRel, nil)
	if err != nil {
		return nil, nil, err
	}
	refined, err := core.SummarySearch(refineSILP, copts)
	stats.RefineTime = time.Since(refineStart)
	if err != nil {
		return nil, nil, err
	}

	out := *refined
	out.X = make([]float64, n)
	candRow := 0
	for t := 0; t < n; t++ {
		if inCandidate[t] {
			if refined.X != nil {
				out.X[t] = refined.X[candRow]
			}
			candRow++
		}
	}
	if refined.X == nil {
		out.X = nil
	}
	return &out, stats, nil
}
