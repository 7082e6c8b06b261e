package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/relation"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// hardRequest builds a query that cannot finish quickly: a near-infeasible
// probabilistic bound over many tuples with a huge validation population.
func hardRequest() Request {
	return Request{
		Query: `SELECT PACKAGE(*) FROM stocks SUCH THAT
			SUM(price) <= 2000 AND
			SUM(gain) >= 500 WITH PROBABILITY >= 0.99
			MAXIMIZE EXPECTED SUM(gain)`,
		Options: &core.Options{Seed: 1, ValidationM: 500000, InitialM: 50, IncrementM: 50, MaxM: 1000},
	}
}

// waitState polls the job until it reaches want (fatal after a deadline).
func waitState(t *testing.T, j *Job, want client.JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s := j.Snapshot(0); s.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached state %q (now %q)", want, j.Snapshot(0).State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobLifecycleParity is the async/sync equivalence check: a submitted
// job must record progress while solving and finish with a result
// bit-identical to the synchronous Engine.Query path for the same seed.
func TestJobLifecycleParity(t *testing.T) {
	cat := newCatalog(t, 15)
	// Result cache off so both paths actually solve.
	e := New(cat, &Options{ResultCacheSize: -1})
	req := Request{Query: testQuery, Options: smallCoreOptions()}

	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	snap := j.Snapshot(0)
	if jerr := snap.Err(); jerr != nil {
		t.Fatalf("job failed: %v", jerr)
	}
	res := snap.Result
	if snap.State != client.JobSucceeded {
		t.Fatalf("state = %q, want succeeded", snap.State)
	}
	if len(snap.Events) == 0 {
		t.Fatal("job recorded no progress events")
	}
	for _, ev := range snap.Events {
		if ev.Iteration < 1 || ev.M <= 0 {
			t.Fatalf("malformed progress event: %+v", ev)
		}
	}
	last := snap.Events[len(snap.Events)-1]
	if last.BestObjective != res.Objective {
		t.Fatalf("final event best objective %v != result objective %v", last.BestObjective, res.Objective)
	}
	if res == nil || !res.Feasible || len(res.Package) == 0 {
		t.Fatalf("bad wire result: %+v", res)
	}

	// Synchronous path, same request: must be bit-identical.
	sres, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Objective != res.Objective || sres.M != res.M || sres.Z != res.Z {
		t.Fatalf("async (obj=%v M=%d Z=%d) != sync (obj=%v M=%d Z=%d)",
			res.Objective, res.M, res.Z, sres.Objective, sres.M, sres.Z)
	}
	spkg := packageOf(sres.X, sres.Rel)
	if len(spkg) != len(res.Package) {
		t.Fatalf("package length diverged: %d vs %d tuples", len(res.Package), len(spkg))
	}
	for i := range spkg {
		if spkg[i] != res.Package[i] {
			t.Fatalf("package diverged at %d: %+v vs %+v", i, res.Package[i], spkg[i])
		}
	}
}

// TestJobSketchProgressPhases: a method=sketch job streams phase-labelled
// progress from the pipeline's sub-solves, and the job-level best-so-far
// stays consistent with the final result even though each shard tracks its
// own incumbent.
func TestJobSketchProgressPhases(t *testing.T) {
	cat := newCatalog(t, 60)
	e := New(cat, &Options{ResultCacheSize: -1})
	j, err := e.Submit(Request{
		Query:   testQuery,
		Method:  "sketch",
		Options: smallCoreOptions(),
		Sketch:  &sketch.Options{GroupSize: 8, MaxCandidates: 24, Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("sketch job did not finish")
	}
	snap := j.Snapshot(0)
	if jerr := snap.Err(); jerr != nil {
		t.Fatalf("sketch job failed: %v", jerr)
	}
	phases := map[string]bool{}
	for _, ev := range snap.Events {
		phases[ev.Phase] = true
	}
	if !phases["refine"] && !phases["fallback"] {
		t.Fatalf("no refine/fallback phase in events: %v", phases)
	}
	sawShard := false
	for ph := range phases {
		if strings.HasPrefix(ph, "sketch/shard") {
			sawShard = true
		}
	}
	if !sawShard && !phases["fallback"] {
		t.Fatalf("no shard sketch phase in events: %v", phases)
	}
	// The refine's solution is the job's final result; the cross-phase
	// best must be at least as good (feasibility-first, maximize sense).
	if snap.Result.Feasible && !snap.BestFeasible {
		t.Fatal("feasible result but infeasible job-level best")
	}
	if snap.BestFeasible && snap.BestObjective < snap.Result.Objective {
		t.Fatalf("best objective %v regressed below final %v", snap.BestObjective, snap.Result.Objective)
	}
}

// TestQueryPreCancelledContext: an already-cancelled context never
// evaluates, not even from a warm result cache — the guarantee the job
// manager relies on so a job cancelled while queued cannot "succeed".
func TestQueryPreCancelledContext(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, nil) // result cache on
	req := Request{Query: testQuery, Options: smallCoreOptions()}
	if _, err := e.Query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Query(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm-cache query on cancelled ctx: err = %v, want Canceled", err)
	}
}

// TestJobPanicContainment: a panic inside the evaluation fails the one job
// (code internal) instead of crashing the daemon; the caller's Progress
// callback is chained, not replaced.
func TestJobPanicContainment(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{ResultCacheSize: -1})
	calls := 0
	j, err := e.Submit(Request{
		Query:   testQuery,
		Options: smallCoreOptions(),
		Progress: func(core.Progress) {
			calls++
			panic("synthetic progress panic")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("panicking job did not finish")
	}
	if calls == 0 {
		t.Fatal("user progress callback was not chained")
	}
	snap := j.Snapshot(0)
	if snap.State != client.JobFailed {
		t.Fatalf("state = %q, want failed", snap.State)
	}
	if snap.Error == nil || snap.Error.Code != client.CodeInternal {
		t.Fatalf("error = %+v, want code internal", snap.Error)
	}
	// The engine must still work after the contained panic.
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatalf("engine broken after contained panic: %v", err)
	}
}

// TestJobCancelFreesSlot cancels a running job and checks (a) the state
// machine lands on cancelled, (b) the admission slot is returned so a new
// query gets through an engine with a single slot and no queue.
func TestJobCancelFreesSlot(t *testing.T) {
	cat := newCatalog(t, 40)
	e := New(cat, &Options{MaxInFlight: 1, MaxQueue: -1, Parallelism: 1, MaxJobs: 4})

	j, err := e.Submit(hardRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, client.JobRunning)

	if _, ok := e.CancelJob(j.ID()); !ok {
		t.Fatal("CancelJob did not find the job")
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job did not finish")
	}
	if s := j.Snapshot(0); s.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", s.State)
	}
	if j.Snapshot(0).Err() == nil {
		t.Fatal("cancelled job reported no error")
	}

	// The only solve slot must be free again: with MaxQueue<0 a held slot
	// would reject this query immediately.
	if _, err := e.Query(context.Background(), Request{Query: testQuery, Options: smallCoreOptions()}); err != nil {
		t.Fatalf("query after cancel failed: %v", err)
	}
	if got := e.Stats().JobsCancelled; got != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", got)
	}
}

// TestJobCancelMidMILP is the cancellation-latency regression test at the
// job level: a DELETE on a job whose evaluation is deep inside a single long
// LP solve must reach cancelled within iterations of the simplex, not after
// the solve finishes. The query is built so the very first MILP's root LP
// relaxation alone runs for many seconds (a huge unconstrained knapsack:
// one bound flip per tuple, each with a full pricing scan), which made the
// pre-fix behaviour — Cancel polled only between LP solves — flaky-slow by
// construction.
func TestJobCancelMidMILP(t *testing.T) {
	cat := newCatalog(t, 30000)
	e := New(cat, &Options{MaxInFlight: 1, Parallelism: 1, ResultCacheSize: -1})
	j, err := e.Submit(Request{
		// The budget never binds, so the root LP walks all 30k tuples.
		Query: `SELECT PACKAGE(*) FROM stocks SUCH THAT
			SUM(price) <= 2000000000 AND
			SUM(gain) >= 100 WITH PROBABILITY >= 0.95
			MAXIMIZE EXPECTED SUM(gain)`,
		Timeout: 10 * time.Minute,
		Options: &core.Options{Seed: 1, ValidationM: 1000, InitialM: 20, MaxM: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, client.JobRunning)
	// Land well inside the root LP solve (it runs for many seconds; under
	// the race detector, tens of seconds).
	settle := 500 * time.Millisecond
	if raceEnabled {
		settle = 2 * time.Second
	}
	time.Sleep(settle)

	cancelled := time.Now()
	if _, ok := e.CancelJob(j.ID()); !ok {
		t.Fatal("CancelJob did not find the job")
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	latency := time.Since(cancelled)
	bound := 3 * time.Second
	if raceEnabled {
		bound = 8 * time.Second
	}
	if latency > bound {
		t.Fatalf("cancel→done latency %v (bound %v): cancellation waited for the LP solve", latency, bound)
	}
	if s := j.Snapshot(0); s.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", s.State)
	}
}

// TestJobTerminalPinsNoRelation pins that a job cancelled after reporting a
// candidate keeps only its rendered best package: settle drops the package
// vector and the snapshot relation it indexes, and the served best package
// does not move when a delta then mutates the job's table.
func TestJobTerminalPinsNoRelation(t *testing.T) {
	cat := deltaCatalog(t, 15)
	e := New(cat, &Options{ResultCacheSize: -1})
	submitted := make(chan *Job, 1)
	var once sync.Once
	req := Request{Query: deltaQuery, Options: deltaCoreOptions()}
	req.Progress = func(p core.Progress) {
		if p.Improved {
			once.Do(func() { e.CancelJob((<-submitted).ID()) })
		}
	}
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	submitted <- j
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled job did not finish")
	}

	before := j.Snapshot(0)
	if before.State != client.JobCancelled {
		t.Fatalf("state = %q, want cancelled", before.State)
	}
	if len(before.BestPackage) == 0 {
		t.Fatal("cancelled job lost the candidate it reported")
	}
	if j.bestX != nil || j.bestRel != nil {
		t.Fatal("terminal job still pins its package vector or relation")
	}

	patch := map[int]float64{}
	for _, pt := range before.BestPackage {
		patch[pt.Tuple] = 1000
	}
	if _, err := e.ApplyDelta("stocks", &relation.Delta{
		Set: map[string]map[int]float64{"price": patch},
	}); err != nil {
		t.Fatal(err)
	}
	after := j.Snapshot(0)
	if after.BestFeasible != before.BestFeasible || after.BestObjective != before.BestObjective {
		t.Fatalf("best moved across a delta: (%v, %v) -> (%v, %v)",
			before.BestFeasible, before.BestObjective, after.BestFeasible, after.BestObjective)
	}
	if len(after.BestPackage) != len(before.BestPackage) {
		t.Fatalf("best package changed size across a delta: %d -> %d tuples",
			len(before.BestPackage), len(after.BestPackage))
	}
	for i := range before.BestPackage {
		if after.BestPackage[i] != before.BestPackage[i] {
			t.Fatalf("best package tuple %d moved across a delta: %+v -> %+v",
				i, before.BestPackage[i], after.BestPackage[i])
		}
	}
}

// TestJobHistoryEviction bounds the finished-job history.
func TestJobHistoryEviction(t *testing.T) {
	cat := newCatalog(t, 15)
	e := New(cat, &Options{JobHistory: 2, ResultCacheSize: -1})

	var ids []string
	for k := 0; k < 4; k++ {
		opts := smallCoreOptions()
		opts.Seed = uint64(k + 1)
		j, err := e.Submit(Request{Query: testQuery, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatal("job did not finish")
		}
		ids = append(ids, j.ID())
	}

	if n := len(e.Jobs()); n != 2 {
		t.Fatalf("tracked jobs = %d, want 2", n)
	}
	if _, ok := e.JobByID(ids[0]); ok {
		t.Fatal("oldest job survived eviction")
	}
	if _, ok := e.JobByID(ids[3]); !ok {
		t.Fatal("newest job was evicted")
	}
	st := e.Stats()
	if st.JobsEvicted != 2 || st.JobsSubmitted != 4 || st.JobsCompleted != 4 {
		t.Fatalf("stats = evicted %d submitted %d completed %d, want 2/4/4",
			st.JobsEvicted, st.JobsSubmitted, st.JobsCompleted)
	}
}

// TestSubmitValidation: malformed queries and unknown methods fail at
// submit time, and MaxJobs bounds the active set with ErrOverloaded.
func TestSubmitValidation(t *testing.T) {
	cat := newCatalog(t, 40)
	e := New(cat, &Options{MaxJobs: 1, MaxInFlight: 1, Parallelism: 1})

	if _, err := e.Submit(Request{Query: "SELECT NONSENSE"}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("parse failure err = %v, want ErrBadQuery", err)
	}
	for _, m := range []string{"quantum", "remote"} {
		if _, err := e.Submit(Request{Query: testQuery, Method: m}); !errors.Is(err, ErrUnknownMethod) {
			t.Fatalf("method %q err = %v, want ErrUnknownMethod", m, err)
		}
	}

	j, err := e.Submit(hardRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Request{Query: testQuery, Options: smallCoreOptions()}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-MaxJobs submit err = %v, want ErrOverloaded", err)
	}
	e.CancelJob(j.ID())
	<-j.Done()
}

// TestProgressIncumbentMonotone: the Best* fields of a solve's progress
// read the one incumbent the solve returns. Portfolio Q2 with a gap no
// round reaches (ε = 1e-9) grows Z and M through rounds whose per-call
// best is worse than an earlier one; the reported incumbent must still
// never lose feasibility or get worse, and the last report must describe
// the returned package. Checked on a direct solve and on a v1 job.
func TestProgressIncumbentMonotone(t *testing.T) {
	in := workload.Portfolio(workload.Config{N: 30, Seed: 1, MeansM: 200})
	q, _ := in.QueryByID("Q2")
	opts := func() *core.Options {
		return &core.Options{Seed: 3, ValidationM: 1000, InitialM: 10, IncrementM: 10, MaxM: 60, SolverNodes: 5000, Epsilon: 1e-9}
	}
	silp, err := translate.Build(spaql.MustParse(q.SPaQL), in.Table(q.Table), nil)
	if err != nil {
		t.Fatal(err)
	}
	worse := func(a, b float64) bool { // a is worse than b in the query's sense
		if silp.Maximize {
			return a < b
		}
		return a > b
	}
	check := func(path string, reports []client.Progress, feasible bool, objective float64) {
		t.Helper()
		if len(reports) < 2 {
			t.Fatalf("%s: %d progress reports, want several rounds", path, len(reports))
		}
		for i := 1; i < len(reports); i++ {
			prev, cur := reports[i-1], reports[i]
			if prev.BestFeasible && !cur.BestFeasible {
				t.Fatalf("%s: report %d: best_feasible went true → false", path, i)
			}
			if prev.BestFeasible == cur.BestFeasible && worse(cur.BestObjective, prev.BestObjective) {
				t.Fatalf("%s: report %d: best_objective got worse, %v → %v", path, i, prev.BestObjective, cur.BestObjective)
			}
		}
		last := reports[len(reports)-1]
		if last.BestFeasible != feasible || last.BestObjective != objective {
			t.Fatalf("%s: last report has best (%v, %v), the result is (%v, %v)",
				path, last.BestFeasible, last.BestObjective, feasible, objective)
		}
	}

	var direct []client.Progress
	o := opts()
	o.Progress = func(p core.Progress) {
		direct = append(direct, client.Progress{BestFeasible: p.BestFeasible, BestObjective: p.BestObjective})
	}
	sol, err := core.SummarySearchCtx(context.Background(), silp, o)
	if err != nil {
		t.Fatal(err)
	}
	check("direct", direct, sol.Feasible, sol.Objective)

	e := New(testCatalog(in.Tables), &Options{ResultCacheSize: -1})
	j, err := e.Submit(Request{Query: q.SPaQL, Options: opts()})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	snap := j.Snapshot(0)
	if snap.Result == nil {
		t.Fatalf("job ended %s without a result: %+v", snap.State, snap.Error)
	}
	check("job", snap.Events, snap.Result.Feasible, snap.Result.Objective)
	if snap.Result.Objective != sol.Objective {
		t.Fatalf("job objective %v, direct %v", snap.Result.Objective, sol.Objective)
	}
}
