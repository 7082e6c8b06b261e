package spq

import (
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
// bits, M, Z, an FNV-64a digest of X's bits and the solver totals.
// MILPWorkers is the resolved worker bound, which follows GOMAXPROCS, so it
// is left out: every other field is the same for any worker count.
func digestLine(id string, res *Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", id, err.Error())
	}
	h := fnv.New64a()
	var b [8]byte
	for _, x := range res.X {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	tot := res.SolveTotals
	tot.MILPWorkers = 0
	return fmt.Sprintf("%s feasible=%t obj=%016x m=%d z=%d x=%016x totals=%+v",
		id, res.Feasible, math.Float64bits(res.Objective), res.M, res.Z, h.Sum64(), tot)
}

// answerDigest answers every Table 3 query of every built-in workload at
// test size with SummarySearch and with sketch (see digestSketch), and the Galaxy and
// Portfolio queries with Naïve too (unless skipNaive), one line each.
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
	return lines
}

// TestAnswerDigest pins the answer of every paper query at test size: a
// change that moves any answer or any solver counter changes a line of
// testdata/answers.digest. The bits hold per GOARCH, which the file's header
// records; run with -update to rewrite it. Race builds skip the Naïve lines,
// which take most of the time.
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
