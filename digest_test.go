package spq

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"spq/internal/workload"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/answers.digest from this build's answers")

const digestPath = "testdata/answers.digest"

// digestOptions are the evaluation settings every digest line runs with.
func digestOptions() *Options {
	return &Options{Seed: 3, ValidationM: 1000, MaxM: 40, SolverNodes: 2000, Parallelism: -1}
}

// digestSketch makes groups small enough that every test-size table is
// sketched, in two shards, rather than answered directly.
var digestSketch = &SketchOptions{GroupSize: 8, Shards: 2, Workers: -1}

// digestNaive lists the workloads whose queries also run under Naïve. On
// TPC-H Naïve takes seconds per query even at N = 40, so it is left out.
var digestNaive = map[string]bool{"galaxy": true, "portfolio": true}

// digestLine renders one answer: the error, or feasibility, the objective's
// bits, ε′'s bits, M, Z, an FNV-64a digest of X's bits and the solver
// totals.
func digestLine(id string, res *Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", id, err.Error())
	}
	return id + " " + solutionDigest(res.Solution)
}

// solutionDigest renders a solution's fields of a digest line.
func solutionDigest(sol *Solution) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range sol.X {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("feasible=%t obj=%016x eps=%016x m=%d z=%d x=%016x totals=%+v",
		sol.Feasible, math.Float64bits(sol.Objective), math.Float64bits(sol.EpsUpper), sol.M, sol.Z, h.Sum64(), sol.SolveTotals)
}

// deltaDigest runs a fixed delta script through an engine: Portfolio Q3 at
// test size is asked cold, then again after each of three deltas, one line
// per answer with the result-cache hit and the warm flag. A Set on a column
// the query does not read keeps the cached entry; a Set raising the price
// of three tuples outside the package invalidates it and re-solves warm; a
// Delete invalidates it and changes membership, so the plan is rebuilt and
// solved cold. The flags each step must show are checked here, so the
// script cannot drift off the paths it pins.
func deltaDigest(t *testing.T) []string {
	inst, err := workload.ByName("portfolio", workload.Config{N: 40, Seed: 3, MeansM: 200})
	if err != nil {
		t.Fatal(err)
	}
	q, ok := inst.QueryByID("Q3")
	if !ok {
		t.Fatal("portfolio has no Q3")
	}
	db := NewDB()
	db.MeansM = 200
	if err := db.Register(inst.Table(q.Table)); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(db, nil)
	var lines []string
	ask := func(step string, hit, warm bool) *EngineResult {
		t.Helper()
		res, err := eng.Query(context.Background(), EngineRequest{Query: q.SPaQL, Options: digestOptions()})
		id := "delta portfolio Q3 " + step
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		lines = append(lines, fmt.Sprintf("%s %s result_cache_hit=%t warm=%t",
			id, solutionDigest(res.Solution), res.ResultCacheHit, res.WarmResolve))
		if res.ResultCacheHit != hit || res.WarmResolve != warm {
			t.Errorf("%s: result_cache_hit=%t warm=%t, want %t and %t", id, res.ResultCacheHit, res.WarmResolve, hit, warm)
		}
		return res
	}
	apply := func(d *Delta) {
		t.Helper()
		if _, err := eng.ApplyDelta(q.Table, d); err != nil {
			t.Fatal(err)
		}
	}
	cold := ask("cold", false, false)
	apply(&Delta{Set: map[string]map[int]float64{"volatility": {0: 9, 3: 9}}})
	ask("retained", true, false)
	priced := map[int]float64{}
	for i := len(cold.X) - 1; i >= 0 && len(priced) < 3; i-- {
		if cold.X[i] == 0 {
			priced[i] = 5000
		}
	}
	apply(&Delta{Set: map[string]map[int]float64{"price": priced}})
	ask("warm", false, true)
	apply(&Delta{Delete: []int{0, 1}})
	ask("rebuilt", false, false)
	return lines
}

// sketchDeltaDigest asks Galaxy Q3 with a SUM(base_r) row added, so that
// the sketch (see digestSketch) clusters on base_r, cold and again after a
// Set of two base_r cells. The second answer must be a fresh engine's over
// the same data: a partitioning carried across a delta equals a cold one.
func sketchDeltaDigest(t *testing.T) []string {
	gen := func() (*DB, workload.Query) {
		inst, err := workload.ByName("galaxy", workload.Config{N: 40, Seed: 3, MeansM: 200})
		if err != nil {
			t.Fatal(err)
		}
		q, ok := inst.QueryByID("Q3")
		if !ok {
			t.Fatal("galaxy has no Q3")
		}
		const marker = "COUNT(*) BETWEEN 5 AND 10 AND"
		at := strings.Index(q.SPaQL, marker)
		if at < 0 {
			t.Fatalf("galaxy Q3 changed shape: %s", q.SPaQL)
		}
		at += len(marker)
		q.SPaQL = q.SPaQL[:at] + " SUM(base_r) <= 1000 AND" + q.SPaQL[at:]
		db := NewDB()
		db.MeansM = 200
		if err := db.Register(inst.Table(q.Table)); err != nil {
			t.Fatal(err)
		}
		return db, q
	}
	set := &Delta{Set: map[string]map[int]float64{"base_r": {5: 14.5, 22: 5.5}}}
	ask := func(eng *Engine, q workload.Query) *EngineResult {
		t.Helper()
		res, err := eng.Query(context.Background(), EngineRequest{Query: q.SPaQL, Method: "sketch", Options: digestOptions(), Sketch: digestSketch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	db, q := gen()
	eng := NewEngine(db, nil)
	var lines []string
	var after string
	for _, step := range []string{"cold", "set"} {
		if step == "set" {
			if _, err := eng.ApplyDelta(q.Table, set); err != nil {
				t.Fatal(err)
			}
		}
		res := ask(eng, q)
		after = solutionDigest(res.Solution)
		lines = append(lines, fmt.Sprintf("delta galaxy Q3+base_r sketch %s %s result_cache_hit=%t warm=%t",
			step, after, res.ResultCacheHit, res.WarmResolve))
	}
	db, q = gen()
	cold := NewEngine(db, nil)
	if _, err := cold.ApplyDelta(q.Table, set); err != nil {
		t.Fatal(err)
	}
	if want := solutionDigest(ask(cold, q).Solution); after != want {
		t.Errorf("after the Set the engine answered\n%s\na fresh engine over the same data answered\n%s", after, want)
	}
	return lines
}

// answerDigest answers every Table 3 query of every built-in workload at
// test size with SummarySearch and with sketch (see digestSketch), and the Galaxy and
// Portfolio queries with Naïve too (unless skipNaive), one line each, and
// then runs the delta scripts of deltaDigest and sketchDeltaDigest.
func answerDigest(t *testing.T, skipNaive bool) []string {
	var lines []string
	for _, name := range workload.Names() {
		inst, err := workload.ByName(name, workload.Config{N: 40, Seed: 3, MeansM: 200})
		if err != nil {
			t.Fatal(err)
		}
		db := NewDB()
		db.MeansM = 200
		for _, tn := range inst.TableNames() {
			if err := db.Register(inst.Table(tn)); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range inst.Queries {
			id := name + " " + q.ID
			res, err := db.Query(q.SPaQL, digestOptions())
			lines = append(lines, digestLine(id+" summarysearch", res, err))
			res, _, err = db.QuerySketch(q.SPaQL, digestOptions(), digestSketch)
			lines = append(lines, digestLine(id+" sketch", res, err))
			if digestNaive[name] && !skipNaive {
				res, err = db.QueryNaive(q.SPaQL, digestOptions())
				lines = append(lines, digestLine(id+" naive", res, err))
			}
		}
	}
	return append(append(lines, deltaDigest(t)...), sketchDeltaDigest(t)...)
}

// TestAnswerDigest pins the answer of every paper query at test size, and
// of an engine re-asking one across deltas: a change that moves any answer,
// ε′ or any solver counter changes a line of testdata/answers.digest. The
// bits hold per GOARCH, which the file's header records; run with -update
// to rewrite it. Race builds skip the Naïve lines, which take most of the
// time.
func TestAnswerDigest(t *testing.T) {
	header := "# GOARCH " + runtime.GOARCH
	if *updateDigest {
		if raceEnabled {
			t.Fatal("-update needs a build without -race: it skips the Naïve lines")
		}
		body := header + "\n" + strings.Join(answerDigest(t, false), "\n") + "\n"
		if err := os.WriteFile(digestPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if want[0] != header {
		t.Skipf("digest recorded for %q, this build is %s", want[0], runtime.GOARCH)
	}
	want = want[1:]
	if raceEnabled {
		kept := want[:0]
		for _, l := range want {
			if !strings.Contains(l, " naive ") {
				kept = append(kept, l)
			}
		}
		want = kept
	}
	got := answerDigest(t, raceEnabled)
	if len(got) != len(want) {
		t.Fatalf("%d answers, digest has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("answer moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestPortfolioAnswersAtN120: every Portfolio query of Table 3 answers at
// the size of solve_bound's Portfolio table (N = 120, workload seed 1) under
// the digest's options, so x(0) must find a package within 2 000 nodes.
// With the root rounded to nearest as the only rounding, Q3–Q8 failed with
// "unconstrained solve failed: limit".
func TestPortfolioAnswersAtN120(t *testing.T) {
	inst, err := workload.ByName("portfolio", workload.Config{N: 120, Seed: 1, MeansM: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.MeansM = 200
	for _, tn := range inst.TableNames() {
		if err := db.Register(inst.Table(tn)); err != nil {
			t.Fatal(err)
		}
	}
	if len(inst.Queries) != 8 {
		t.Fatalf("portfolio has %d queries, want Table 3's 8", len(inst.Queries))
	}
	for _, q := range inst.Queries {
		res, err := db.Query(q.SPaQL, digestOptions())
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			continue
		}
		t.Logf("%s: feasible=%t objective %v, %d nodes", q.ID, res.Feasible, res.Objective, res.SolveTotals.MILPNodes)
	}
}
