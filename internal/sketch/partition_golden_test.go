package sketch

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// partitionDigest hashes a partitioning's clustering level — GroupOf,
// Groups (sizes and members, in order) and Medoids — with FNV-64a.
func partitionDigest(p *relation.Partitioning) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(len(p.GroupOf))
	for _, g := range p.GroupOf {
		put(g)
	}
	put(len(p.Groups))
	for _, g := range p.Groups {
		put(len(g))
		for _, t := range g {
			put(t)
		}
	}
	put(len(p.Medoids))
	for _, m := range p.Medoids {
		put(m)
	}
	return h.Sum64()
}

var (
	goldenGalaxyOnce sync.Once
	goldenGalaxy     *workload.Instance
)

// galaxy8000 is the Galaxy instance the golden cases cluster: N = 8 000
// tuples, generated once per test binary.
func galaxy8000() *workload.Instance {
	goldenGalaxyOnce.Do(func() {
		goldenGalaxy = workload.Galaxy(workload.Config{N: 8000, Seed: 42, MeansM: 50})
	})
	return goldenGalaxy
}

// featureSketchAttrs returns the features featureAttrs picks for a Galaxy
// query with a deterministic SUM(base_r) row added, the shape of the
// sketched templates in the delta_churn benchmark workload.
func featureSketchAttrs(t *testing.T, in *workload.Instance, id string) (*relation.Relation, []string) {
	t.Helper()
	q, ok := in.QueryByID(id)
	if !ok {
		t.Fatalf("galaxy has no %s", id)
	}
	const marker = "COUNT(*) BETWEEN 5 AND 10 AND"
	i := strings.Index(q.SPaQL, marker)
	if i < 0 {
		t.Fatalf("galaxy %s changed shape: %s", id, q.SPaQL)
	}
	at := i + len(marker)
	text := q.SPaQL[:at] + " SUM(base_r) <= 1000 AND" + q.SPaQL[at:]
	rel := in.Table(q.Table)
	silp, err := translate.Build(spaql.MustParse(text), rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := featureAttrs(silp)
	if err != nil {
		t.Fatal(err)
	}
	return rel, attrs
}

// detRelation builds a relation of deterministic columns named f0, f1, …
func detRelation(t *testing.T, cols [][]float64) (*relation.Relation, []string) {
	t.Helper()
	rel := relation.New("r", len(cols[0]))
	var names []string
	for d, col := range cols {
		name := "f" + string(rune('0'+d))
		if err := rel.AddDet(name, col); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return rel, names
}

// gaussianCols draws dims columns of n standard normal values.
func gaussianCols(seed uint64, n, dims int) [][]float64 {
	s := rng.NewStream(seed)
	cols := make([][]float64, dims)
	for d := range cols {
		cols[d] = make([]float64, n)
		for i := range cols[d] {
			cols[d][i] = s.Norm()
		}
	}
	return cols
}

// TestKMeansGroupsGolden pins the k-means clustering (group of every tuple,
// group members, medoids) on the full build and on the per-shard patch.
// The 1-shard digests were recorded when shards were still contiguous runs
// of one global clustering, which a single shard is, bit for bit, and
// before the assignment step learnt to skip centroids; the 4-shard digests
// are those of round-robin shards clustered alone.
func TestKMeansGroupsGolden(t *testing.T) {
	type golden struct {
		name   string
		part   func(t *testing.T) *relation.Partitioning
		digest uint64
	}
	partition := func(t *testing.T, rel *relation.Relation, spec relation.PartitionSpec) *relation.Partitioning {
		t.Helper()
		p, err := rel.Partition(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	galaxy := func(id string, seed uint64, shards int) func(t *testing.T) *relation.Partitioning {
		return func(t *testing.T) *relation.Partitioning {
			rel, attrs := featureSketchAttrs(t, galaxy8000(), id)
			return partition(t, rel, relation.PartitionSpec{Features: attrs, GroupSize: 64, Shards: shards, Seed: seed})
		}
	}
	// patched sets 4 base_r cells of a private Galaxy copy (the delta must
	// not reach the shared one) and partitions again through the shard
	// patch path.
	patched := func(shards int) func(t *testing.T) *relation.Partitioning {
		return func(t *testing.T) *relation.Partitioning {
			in := workload.Galaxy(workload.Config{N: 8000, Seed: 42, MeansM: 50})
			rel, attrs := featureSketchAttrs(t, in, "Q3")
			spec := relation.PartitionSpec{Features: attrs, GroupSize: 64, Shards: shards, Seed: 1}
			partition(t, rel, spec)
			base, err := rel.Det("base_r")
			if err != nil {
				t.Fatal(err)
			}
			set := map[int]float64{}
			for _, tup := range []int{17, 2025, 4711, 7999} {
				set[tup] = base[tup] * 1.03
			}
			if _, err := rel.ApplyDelta(&relation.Delta{Set: map[string]map[int]float64{"base_r": set}}); err != nil {
				t.Fatal(err)
			}
			before := relation.DeltaStats()
			p := partition(t, rel.Snapshot(), spec)
			if after := relation.DeltaStats(); after.PartitionsPatched != before.PartitionsPatched+1 {
				t.Fatalf("expected the shard patch path: %+v -> %+v", before, after)
			}
			return p
		}
	}
	cases := []golden{
		{"galaxy Q3 seed 1 1 shard", galaxy("Q3", 1, 1), 0x1cf59bd07b79ef27},
		{"galaxy Q3 seed 2 1 shard", galaxy("Q3", 2, 1), 0x8a609f9bde23e75a},
		{"galaxy Q7 seed 1 1 shard", galaxy("Q7", 1, 1), 0xd3de588e6ae1bd35},
		{"galaxy Q7 seed 2 1 shard", galaxy("Q7", 2, 1), 0x7b6aeebf0ff30bbf},
		{"galaxy Q3 seed 1", galaxy("Q3", 1, 4), 0xa64ff7806c403ec5},
		{"galaxy Q3 seed 2", galaxy("Q3", 2, 4), 0xa4283668e731421b},
		{"galaxy Q7 seed 1", galaxy("Q7", 1, 4), 0xcd9b046be52afde5},
		{"galaxy Q7 seed 2", galaxy("Q7", 2, 4), 0xaf60976bc001fd9e},
		{"patched shard 1 shard", patched(1), 0x4b6c2fc2dbf8b2b8},
		{"patched shard", patched(4), 0x5637ac574815b4ea},
		{"quantised 3 levels", func(t *testing.T) *relation.Partitioning {
			cols := gaussianCols(7, 3000, 2)
			for _, col := range cols {
				for i, v := range col {
					col[i] = math.Max(-1, math.Min(1, math.Round(v)))
				}
			}
			rel, names := detRelation(t, cols)
			return partition(t, rel, relation.PartitionSpec{Features: names, GroupSize: 16, Seed: 3})
		}, 0x179a7bf4cfa90269},
		{"tau 1", func(t *testing.T) *relation.Partitioning {
			rel, names := detRelation(t, gaussianCols(8, 300, 2))
			return partition(t, rel, relation.PartitionSpec{Features: names, GroupSize: 1, Seed: 4})
		}, 0x916055bbe855af72},
		{"one feature", func(t *testing.T) *relation.Partitioning {
			rel, names := detRelation(t, gaussianCols(9, 2000, 1))
			return partition(t, rel, relation.PartitionSpec{Features: names, GroupSize: 32, Seed: 5})
		}, 0xe0f3fc4cdc0d3aa9},
		{"NaN column", func(t *testing.T) *relation.Partitioning {
			cols := gaussianCols(10, 500, 2)
			cols[1][123] = math.NaN()
			rel, names := detRelation(t, cols)
			return partition(t, rel, relation.PartitionSpec{Features: names, GroupSize: 20, Seed: 6})
		}, 0x94391ec56a96b41e},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := partitionDigest(c.part(t)); got != c.digest {
				t.Errorf("digest %#016x, recorded %#016x", got, c.digest)
			}
		})
	}
}
