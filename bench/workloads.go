package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/engine"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/translate"
	"spq/internal/workload"
)

// dataSeed generates every table. It is fixed, not taken from -seed: the
// branch-and-bound work of a Table 3 query changes by an order of magnitude
// between data seeds (Portfolio Q1: 9 516 to 142 599 nodes), so a benchmark
// whose data followed -seed could not tell a 10 % regression from a new seed.
// -seed instead drives everything that leaves the work comparable: the order
// of the op list, which cells deltas touch and the values they write.
const dataSeed = 42

// Budgets never bind: work is bounded by node counts, and an op that does hit
// a limit is a failed op.
const (
	opTimeout  = 10 * time.Minute
	warmupSeed = 9001 // evaluation seed of the set-up warm-up pass; no op uses it
)

// sizes scales every workload. full is what BENCHMARK.json measures; smoke
// keeps each op kind but finishes in seconds (bench_test.go).
type sizes struct {
	// full marks the sizes reference.json was computed for.
	full   bool
	meansM int
	// The Pareto rows of Galaxy have no closed-form mean: the generator
	// samples N x MeansM values per such table. At N = 30000 the default
	// 2000 would make set-up 16 s of one loop, so the large tables take
	// fewer, sized to keep every workload's set-up between one and five
	// seconds.
	scanMeansM, serveMeansM, deltaMeansM int

	validationM int
	maxM        int
	checkM      int // M̂ of the harness's own re-validation

	solvePortfolioN, solveGalaxyN int
	// solveSeeds are the evaluation seeds of solve_bound. Seed 1 brings the
	// deepest searches (Portfolio Q1 and Q2: 1.3 s and 0.9 s); with it a
	// round is 7.6 s, which is why the workload makes three of them.
	solveSeeds []uint64

	scanTPCHN, scanGalaxyN, scanSeeds int
	scanGalaxyValM, scanQ8MaxM        int

	serveP, serveT, serveG        int
	servePool, serveOps, serveCap int

	deltaP, deltaG, deltaOps int

	// Rounds per run, fixed per workload because the round count is part of
	// the round-minimum estimator. Set-up plus timed phase, times the count,
	// is 18-23 s on the reference host in a quiet hour and a quarter more in
	// a busy one, so BENCHMARK.json's run_seconds (30), which can only lower
	// the count, does not.
	solveRounds, scanRounds, serveRounds, deltaRounds int
}

var fullSizes = sizes{
	full:   true,
	meansM: 2000, scanMeansM: 100, serveMeansM: 700, deltaMeansM: 400, validationM: 10000, maxM: 200, checkM: 20000,
	solvePortfolioN: 120, solveGalaxyN: 500, solveSeeds: []uint64{1, 2, 3},
	scanTPCHN: 20000, scanGalaxyN: 15000, scanSeeds: 2, scanGalaxyValM: 20000, scanQ8MaxM: 40,
	serveP: 60, serveT: 2000, serveG: 5000, servePool: 200, serveOps: 500, serveCap: 256,
	deltaP: 100, deltaG: 8000, deltaOps: 200,
	solveRounds: 3, scanRounds: 5, serveRounds: 3, deltaRounds: 8,
}

var smokeSizes = sizes{
	meansM: 200, scanMeansM: 50, serveMeansM: 50, deltaMeansM: 50, validationM: 2000, maxM: 200, checkM: 4000,
	solvePortfolioN: 20, solveGalaxyN: 60, solveSeeds: []uint64{2},
	scanTPCHN: 600, scanGalaxyN: 600, scanSeeds: 1, scanGalaxyValM: 2000, scanQ8MaxM: 20,
	serveP: 40, serveT: 100, serveG: 400, servePool: 6, serveOps: 40, serveCap: 64,
	deltaP: 20, deltaG: 400, deltaOps: 20,
	solveRounds: 2, scanRounds: 2, serveRounds: 2, deltaRounds: 2,
}

// template is one query shape: text, table, evaluation options without a
// seed, and whether Table 3 makes it feasible by construction.
type template struct {
	id       string
	table    string
	query    string
	feasible bool
	opts     core.Options
	method   string
	sketch   *sketch.Options

	attrs []string // what the query reads; filled by plan.ready
}

func (t *template) request(seed uint64) engine.Request {
	o := t.opts
	o.Seed = seed
	return engine.Request{Query: t.query, Method: t.method, Options: &o, Sketch: t.sketch, Timeout: opTimeout}
}

func (t *template) submit(seed uint64, tenant string) client.SubmitRequest {
	sr := client.SubmitRequest{
		Query: t.query, Method: t.method, TimeoutMS: opTimeout.Milliseconds(), Tenant: tenant,
		Options: &client.SolveOptions{
			Seed: seed, ValidationM: t.opts.ValidationM, InitialM: t.opts.InitialM, MaxM: t.opts.MaxM,
			FixedZ: t.opts.FixedZ, TimeLimitMS: t.opts.TimeLimit.Milliseconds(),
			SolverTimeMS: t.opts.SolverTime.Milliseconds(),
		},
	}
	if t.sketch != nil {
		sr.Sketch = &client.SketchOptions{GroupSize: t.sketch.GroupSize, Shards: t.sketch.Shards}
	}
	return sr
}

// solve evaluates the template directly on a lowered problem, the way the
// engine would: SummarySearch, or the sketch pipeline for sketch templates.
func (t *template) solve(ctx context.Context, silp *translate.SILP, opts *core.Options, workers int) (*core.Solution, *sketch.Stats, error) {
	if t.method == "sketch" {
		so := *t.sketch
		so.Workers = workers
		return sketch.SolveSILP(ctx, silp, opts, &so)
	}
	sol, err := core.SummarySearchCtx(ctx, silp, opts)
	return sol, nil, err
}

// table3 returns the evaluation options of the paper's Table 3 protocol.
func (sz sizes) table3(fixedZ int) core.Options {
	return core.Options{
		ValidationM: sz.validationM, InitialM: 20, MaxM: sz.maxM, FixedZ: fixedZ,
		SolverTime: opTimeout, TimeLimit: opTimeout,
	}
}

func (sz sizes) templateOf(prefix string, q workload.Query) *template {
	return &template{
		id: prefix + "/" + q.ID, table: q.Table, query: q.SPaQL,
		feasible: q.Feasible, opts: sz.table3(q.FixedZ),
	}
}

// The sPaQL texts do not depend on table size, so plans read them off
// two-tuple instances and only set-up pays for generating real tables.
var textCfg = workload.Config{N: 2, Seed: dataSeed, MeansM: 2}

func pick(in *workload.Instance, ids ...string) []workload.Query {
	var out []workload.Query
	for _, id := range ids {
		q, ok := in.QueryByID(id)
		if !ok {
			panic("bench: workload " + in.Name + " has no query " + id)
		}
		out = append(out, q)
	}
	return out
}

// Op kinds. Every op but kindDelta ends in a query whose answer is checked.
const (
	kindQuery        = "query"         // ask (template, seed)
	kindCold         = "cold"          // ask a never-seen seed (serve_mixed)
	kindDelta        = "delta"         // HTTP delta on an unread column, no query (serve_mixed)
	kindDeltaMiss    = "delta_miss"    // Set outside the query's footprint, re-ask: retained hit
	kindDeltaPrice   = "delta_price"   // Set of read cells, re-ask: warm re-solve
	kindDeltaVG      = "delta_vg"      // SetVG on the queried attribute, re-ask
	kindDeltaFeature = "delta_feature" // Set of clustering-feature cells, sketch re-ask
	kindDeltaDelete  = "delta_delete"  // Delete of tuples, re-ask: rebuild + cold solve
)

// op is one operation of a client's script.
type op struct {
	kind  string
	tmpl  *template // nil for kindDelta
	seed  uint64
	table string // delta target
	col   string // delta column or attribute
	cells int    // cells set or tuples deleted
}

func (o *op) String() string {
	if o.tmpl == nil {
		return fmt.Sprintf("%s(%s.%s)", o.kind, o.table, o.col)
	}
	return fmt.Sprintf("%s(%s seed=%d)", o.kind, o.tmpl.id, o.seed)
}

// catalog is the engine's view of one round's tables.
type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, bool) {
	r, ok := c[name]
	return r, ok
}

func (c catalog) add(in *workload.Instance) {
	for name, rel := range in.Tables {
		c[name] = rel
	}
}

// instance is one round's fresh system under test.
type instance struct {
	cat     catalog
	eng     *engine.Engine
	srv     *httptest.Server
	clients []*client.Client
	tmpDir  string
	// pristineVG holds the generator's VG functions of delta_vg targets, so
	// every replacement scales the original, not the previous replacement.
	pristineVG map[string]relation.VGFunc
}

func (in *instance) close() {
	if in.srv != nil {
		in.srv.Close()
	}
	if in.tmpDir != "" {
		os.RemoveAll(in.tmpDir)
	}
}

// plan is a workload instantiated for one (sizes, seed): the op scripts, one
// per client, and how to build a fresh instance.
type plan struct {
	name        string
	rounds      int
	templates   []*template
	scripts     [][]op
	tenants     []string
	parallelism int
	caches      bool
	setup       func(tr *tracer) (*instance, error)
	// tolerance is the share by which count metrics may differ between
	// rounds (0 on single-client workloads, where work is deterministic). On
	// serve_mixed it is 10 %, not the issue's 2 %: which keys the LRU evicts
	// depends on how the two clients interleave, one evicted heavy key is one
	// more cold solve, and in some fifty runs one had lp.bound_flips 2.5 %
	// apart between rounds (the rest were under 1 %). A run that trips the
	// guard exits non-zero, which the driver counts as a failed benchmark.
	tolerance float64
}

// ready parses every template once, so a malformed one stops the run before
// any round and clients never parse concurrently.
func (p *plan) ready() *plan {
	for _, t := range p.templates {
		q, err := spaql.Parse(t.query)
		if err != nil {
			panic("bench: template " + t.id + " does not parse: " + err.Error())
		}
		t.attrs = q.Attrs()
		// The same Table 3 row at another N is another problem, with its
		// own reference objective.
		t.id = p.name + "/" + t.id
	}
	return p
}

func (p *plan) opCount() int {
	n := 0
	for _, s := range p.scripts {
		n += len(s)
	}
	return n
}

// newEngine builds the engine every workload uses, with Parallelism and
// concurrency stated rather than left to "one per CPU".
func (p *plan) newEngine(cat catalog, o engine.Options) *engine.Engine {
	o.Parallelism = p.parallelism
	o.MaxInFlight = 1
	o.DefaultTimeout = opTimeout
	if !p.caches {
		o.ResultCacheSize = -1
	}
	return engine.New(cat, &o)
}

// warmUp evaluates every template once through the engine, so lazy set-up
// (plan cache, partitionings, column promotion) is paid before timing. A
// positive nodeCap cuts each search short: where the result cache is off
// nothing of the answer is kept, and a full search would make set-up as long
// as the timed phase.
func warmUp(tr *tracer, eng *engine.Engine, templates []*template, nodeCap int) error {
	sp := tr.start("setup.warm_up", 0, -1)
	defer tr.end(sp)
	for _, t := range templates {
		req := t.request(warmupSeed)
		req.Options.SolverNodes = nodeCap
		_, err := eng.Query(context.Background(), req)
		if nodeCap > 0 && errors.Is(err, engine.ErrDegraded) {
			continue // the cap bound before any package was feasible
		}
		if err != nil {
			return fmt.Errorf("warm-up of %s: %w", t.id, err)
		}
	}
	return nil
}

func shuffle[T any](s *rng.Stream, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.IntN(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

type workloadDef struct {
	name  string
	why   string
	build func(sz sizes, seed uint64) *plan
}

var workloads = []workloadDef{
	{"solve_bound", "branch-and-bound and the LP kernel do about 90 % of the work: Portfolio and counteracted Galaxy rows of Table 3, tens of thousands of nodes per query", buildSolveBound},
	{"scan_bound", "work proportional to N dominates (pushdown, realisation, summaries, root LP over 15-20k columns, validation) while branch-and-bound is 1-2 nodes", buildScanBound},
	{"serve_mixed", "a request entering spqd and a package leaving it: two weighted tenants over HTTP v1, Zipf keys against a result cache smaller than the key set, cold seeds and deltas mixed in", buildServeMixed},
	{"delta_churn", "the caches used for maintenance instead of cold evaluation: every op is ApplyDelta then re-asking the affected query, so latency is time to a fresh answer", buildDeltaChurn},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// --- solve_bound ---

func buildSolveBound(sz sizes, seed uint64) *plan {
	p := &plan{name: "solve_bound", rounds: sz.solveRounds, parallelism: 1}
	cfgP := workload.Config{N: sz.solvePortfolioN, Seed: dataSeed, MeansM: sz.meansM}
	cfgG := workload.Config{N: sz.solveGalaxyN, Seed: dataSeed, MeansM: sz.meansM}
	for _, q := range workload.Portfolio(textCfg).Queries {
		p.templates = append(p.templates, sz.templateOf("portfolio", q))
	}
	// The counteracted-objective Galaxy rows: the ones whose search is deep.
	for _, q := range pick(workload.Galaxy(textCfg), "Q1", "Q2", "Q5", "Q6") {
		p.templates = append(p.templates, sz.templateOf("galaxy", q))
	}
	var script []op
	for _, t := range p.templates {
		for _, s := range sz.solveSeeds {
			script = append(script, op{kind: kindQuery, tmpl: t, seed: s})
		}
	}
	shuffle(rng.NewStream(rng.Mix(seed, 0x501)), script)
	p.scripts = [][]op{script}
	p.setup = func(tr *tracer) (*instance, error) {
		in := &instance{cat: catalog{}}
		sp := tr.start("setup.generate", 0, -1)
		in.cat.add(workload.Portfolio(cfgP))
		in.cat.add(workload.Galaxy(cfgG))
		tr.end(sp)
		in.eng = p.newEngine(in.cat, engine.Options{})
		return in, warmUp(tr, in.eng, p.templates, 5000)
	}
	return p.ready()
}

// --- scan_bound ---

func buildScanBound(sz sizes, seed uint64) *plan {
	p := &plan{name: "scan_bound", rounds: sz.scanRounds, parallelism: 2}
	cfgT := workload.Config{N: sz.scanTPCHN, Seed: dataSeed, MeansM: sz.meansM}
	cfgG := workload.Config{N: sz.scanGalaxyN, Seed: dataSeed, MeansM: sz.scanMeansM}
	tpch := workload.TPCH(textCfg)
	var script []op
	for _, q := range tpch.Queries {
		t := sz.templateOf("tpch", q)
		seeds := sz.scanSeeds
		if !q.Feasible {
			// Q8: infeasible by construction, so M escalates to the cap and
			// summarisation dominates. Asked once, with a lower cap.
			t.opts.MaxM = sz.scanQ8MaxM
			seeds = 1
		}
		p.templates = append(p.templates, t)
		for s := 1; s <= seeds; s++ {
			script = append(script, op{kind: kindQuery, tmpl: t, seed: uint64(s)})
		}
	}
	for _, q := range pick(tpch, "Q1", "Q5") {
		t := sz.templateOf("tpch", q)
		t.id += "+where"
		t.query = withWhere(q.SPaQL, "base_quantity <= 25")
		p.templates = append(p.templates, t)
		script = append(script, op{kind: kindQuery, tmpl: t, seed: 1})
	}
	// Supported-objective Galaxy rows: one-node searches whose cost is the
	// scan and, with M̂ doubled, mostly validation. Q4 is left out: at this N
	// it grows a real tree, which is solve_bound's subject, and its two ops
	// alone would be what query_p90_ms interpolates between.
	for _, q := range pick(workload.Galaxy(textCfg), "Q3", "Q7", "Q8") {
		t := sz.templateOf("galaxy", q)
		t.opts.ValidationM = sz.scanGalaxyValM
		p.templates = append(p.templates, t)
		for s := 1; s <= sz.scanSeeds; s++ {
			script = append(script, op{kind: kindQuery, tmpl: t, seed: uint64(s)})
		}
	}
	shuffle(rng.NewStream(rng.Mix(seed, 0x5ca)), script)
	p.scripts = [][]op{script}
	p.setup = func(tr *tracer) (*instance, error) {
		in := &instance{cat: catalog{}}
		dir, err := os.MkdirTemp(scratchDir(), "scan-")
		if err != nil {
			return nil, err
		}
		in.tmpDir = dir
		sp := tr.start("setup.generate", 0, -1)
		gen := workload.TPCH(cfgT)
		in.cat.add(workload.Galaxy(cfgG))
		tr.end(sp)
		// TPC-H goes through the out-of-core path: deterministic columns
		// spilled to column files and reopened lazily, the generator's VG
		// functions re-attached, means recomputed.
		for name, rel := range gen.Tables {
			lazy, err := spillAndReopen(tr, rel, filepath.Join(dir, name), sz.meansM)
			if err != nil {
				return nil, fmt.Errorf("spilling %s: %w", name, err)
			}
			in.cat[name] = lazy
		}
		in.eng = p.newEngine(in.cat, engine.Options{})
		return in, warmUp(tr, in.eng, p.templates, 0)
	}
	return p.ready()
}

// withWhere inserts a WHERE clause before SUCH THAT.
func withWhere(query, pred string) string {
	const marker = "SUCH THAT"
	i := strings.Index(query, marker)
	if i < 0 {
		panic("bench: query has no SUCH THAT: " + query)
	}
	return query[:i] + "WHERE " + pred + " " + query[i:]
}

// spillAndReopen writes rel's deterministic columns through SpillCSV, reopens
// them with OpenColumnDir and re-attaches rel's stochastic attributes.
func spillAndReopen(tr *tracer, rel *relation.Relation, dir string, meansM int) (*relation.Relation, error) {
	var csv bytes.Buffer
	if err := rel.WriteCSV(&csv); err != nil {
		return nil, err
	}
	sp := tr.start("relation.SpillCSV", 0, -1)
	_, err := relation.SpillCSV(rel.Name(), &csv, dir, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("relation.OpenColumnDir", 0, -1)
	lazy, err := relation.OpenColumnDir(dir, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, attr := range rel.StochNames() {
		vg, err := rel.VG(attr)
		if err != nil {
			return nil, err
		}
		if err := lazy.AddStoch(attr, vg); err != nil {
			return nil, err
		}
	}
	sp = tr.start("relation.ComputeMeans", 0, -1)
	lazy.ComputeMeans(rng.NewSource(rng.Mix(dataSeed, 0x3ea5)), meansM)
	tr.end(sp)
	return lazy, nil
}

// scratchDir is where a run keeps its column files: inside the working
// directory, which the contract makes the only writable place.
func scratchDir() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}

// --- serve_mixed ---

// serveTemplates are small on purpose: a miss costs milliseconds, so a
// closed loop of 1000 requests fits a round and the hit path is visible.
func serveTemplates(sz sizes, port, tpch, gal *workload.Instance) []*template {
	var ts []*template
	for _, q := range pick(port, "Q3", "Q4", "Q5", "Q6", "Q7", "Q8") {
		ts = append(ts, sz.templateOf("portfolio", q))
	}
	for _, q := range pick(tpch, "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7") {
		ts = append(ts, sz.templateOf("tpch", q))
	}
	for _, q := range pick(gal, "Q3", "Q4", "Q7", "Q8") {
		t := sz.templateOf("galaxy", q)
		t.id += "+sketch"
		t.method = "sketch"
		t.sketch = &sketch.Options{GroupSize: 64, Shards: 2}
		ts = append(ts, t)
	}
	return ts
}

// zipfCounts spreads total draws over n ranks in proportion to 1/rank^1.1,
// by largest remainder. The multiset of keys is thereby part of the workload
// definition; -seed only orders it, so the miss count does not wander with it.
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), 1.1)
		sum += w[i]
	}
	counts := make([]int, n)
	type rem struct {
		i int
		f float64
	}
	rems := make([]rem, n)
	given := 0
	for i := range w {
		exact := float64(total) * w[i] / sum
		counts[i] = int(exact)
		given += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].f != rems[b].f {
			return rems[a].f > rems[b].f
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; given < total; k++ {
		counts[rems[k%n].i]++
		given++
	}
	return counts
}

func buildServeMixed(sz sizes, seed uint64) *plan {
	p := &plan{name: "serve_mixed", rounds: sz.serveRounds, parallelism: 1, caches: true, tenants: []string{"gold", "bronze"}, tolerance: 0.10}
	cfgP := workload.Config{N: sz.serveP, Seed: dataSeed, MeansM: sz.meansM}
	cfgT := workload.Config{N: sz.serveT, Seed: dataSeed, MeansM: sz.meansM}
	cfgG := workload.Config{N: sz.serveG, Seed: dataSeed, MeansM: sz.serveMeansM}
	p.templates = serveTemplates(sz, workload.Portfolio(textCfg), workload.TPCH(textCfg), workload.Galaxy(textCfg))

	// Columns no template reads: a delta there must leave every cached plan
	// and result alive (the rebase path).
	unread := [][2]string{
		{"trades_2day_vol", "volatility"}, {"tpch_Q1", "base_revenue"},
		{"galaxy_Q3", "base_r"}, {"trades_week_vol", "sell_in"},
	}
	nRun := sz.serveOps * 85 / 100
	nCold := sz.serveOps * 10 / 100
	nDelta := sz.serveOps - nRun - nCold
	for c := range p.tenants {
		// Per-client pool: rank k is (template k mod T, seed 1 + k div T),
		// offset per client so the two pools are disjoint.
		counts := zipfCounts(sz.servePool, nRun)
		var script []op
		for k, n := range counts {
			t := p.templates[k%len(p.templates)]
			s := uint64(1 + c*1000 + k/len(p.templates))
			for ; n > 0; n-- {
				script = append(script, op{kind: kindQuery, tmpl: t, seed: s})
			}
		}
		for k := 0; k < nCold; k++ {
			t := p.templates[k%len(p.templates)]
			script = append(script, op{kind: kindCold, tmpl: t, seed: uint64(100000 + c*10000 + k)})
		}
		for k := 0; k < nDelta; k++ {
			u := unread[(k+c)%len(unread)]
			script = append(script, op{kind: kindDelta, table: u[0], col: u[1], cells: 4})
		}
		shuffle(rng.NewStream(rng.Mix(seed, 0x5e7, uint64(c))), script)
		p.scripts = append(p.scripts, script)
	}
	p.setup = func(tr *tracer) (*instance, error) {
		in := &instance{cat: catalog{}}
		sp := tr.start("setup.generate", 0, -1)
		in.cat.add(workload.Portfolio(cfgP))
		in.cat.add(workload.TPCH(cfgT))
		in.cat.add(workload.Galaxy(cfgG))
		tr.end(sp)
		in.eng = p.newEngine(in.cat, engine.Options{
			ResultCacheSize: sz.serveCap,
			Tenants:         []engine.TenantConfig{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}},
		})
		in.srv = httptest.NewServer(in.eng.Handler())
		for range p.tenants {
			cl, err := client.New(in.srv.URL, client.WithHTTPClient(in.srv.Client()), client.WithRetries(0))
			if err != nil {
				return nil, err
			}
			in.clients = append(in.clients, cl)
		}
		return in, warmUp(tr, in.eng, p.templates, 0)
	}
	return p.ready()
}

// --- delta_churn ---

// featureQuery adds a deterministic aggregate to a Galaxy row so the sketch
// clusters on a column a Set can touch (base_r); the bound never binds.
func featureQuery(q workload.Query) string {
	const marker = "COUNT(*) BETWEEN 5 AND 10 AND"
	i := strings.Index(q.SPaQL, marker)
	if i < 0 {
		panic("bench: galaxy query changed shape: " + q.SPaQL)
	}
	at := i + len(marker)
	return q.SPaQL[:at] + " SUM(base_r) <= 1000 AND" + q.SPaQL[at:]
}

func buildDeltaChurn(sz sizes, seed uint64) *plan {
	p := &plan{name: "delta_churn", rounds: sz.deltaRounds, parallelism: 1, caches: true}
	cfgP := workload.Config{N: sz.deltaP, Seed: dataSeed, MeansM: sz.meansM}
	cfgG := workload.Config{N: sz.deltaG, Seed: dataSeed, MeansM: sz.deltaMeansM}
	port := workload.Portfolio(textCfg)
	gal := workload.Galaxy(textCfg)

	byTable := map[string][]*template{}
	for _, q := range pick(port, "Q3", "Q4", "Q5", "Q6", "Q7", "Q8") {
		t := sz.templateOf("portfolio", q)
		byTable[t.table] = append(byTable[t.table], t)
		p.templates = append(p.templates, t)
	}
	var sketched []*template
	for _, q := range pick(gal, "Q3", "Q7") {
		t := sz.templateOf("galaxy", q)
		t.id += "+feature+sketch"
		t.query = featureQuery(q)
		t.method = "sketch"
		t.sketch = &sketch.Options{GroupSize: 64, Shards: 4}
		sketched = append(sketched, t)
		p.templates = append(p.templates, t)
	}

	// Twenty-op cycle with the issue's shares: 8 footprint misses, 7 price
	// sets, 2 VG swaps, 2 feature sets, 1 delete. Deletes go to the week
	// table only: a compacted base can no longer take the warm path, and
	// the price sets on the 2-day table must keep taking it.
	cycle := []string{
		kindDeltaMiss, kindDeltaPrice, kindDeltaMiss, kindDeltaFeature, kindDeltaPrice,
		kindDeltaMiss, kindDeltaPrice, kindDeltaVG, kindDeltaMiss, kindDeltaPrice,
		kindDeltaMiss, kindDeltaDelete, kindDeltaPrice, kindDeltaMiss, kindDeltaFeature,
		kindDeltaPrice, kindDeltaMiss, kindDeltaVG, kindDeltaPrice, kindDeltaMiss,
	}
	twoDay, week := byTable["trades_2day_vol"], byTable["trades_week_vol"]
	// Which template each op re-asks is part of the workload, not of -seed:
	// see makeDelta. A footprint-miss op re-asks a template whose cached
	// entry is current, so that what it measures is retention; an entry goes
	// stale when another op mutates what it reads and is current again once
	// re-asked.
	s := rng.NewStream(rng.Mix(dataSeed, 0xde17a))
	current := append(append([]*template{}, twoDay...), week...)
	mutate := func(o *op, from []*template) {
		o.tmpl = from[s.IntN(len(from))]
		o.table = o.tmpl.table
		kept := current[:0]
		for _, t := range current {
			if t.table != o.table {
				kept = append(kept, t)
			}
		}
		current = append(kept, o.tmpl)
	}
	var script []op
	for i := 0; i < sz.deltaOps; i++ {
		o := op{kind: cycle[i%len(cycle)], seed: 1}
		switch o.kind {
		case kindDeltaMiss:
			o.tmpl = current[s.IntN(len(current))]
			o.table, o.col, o.cells = o.tmpl.table, "volatility", 4
		case kindDeltaPrice:
			mutate(&o, twoDay)
			o.col, o.cells = "price", 4
		case kindDeltaVG:
			mutate(&o, twoDay)
			o.col = "gain"
		case kindDeltaFeature:
			o.tmpl = sketched[s.IntN(len(sketched))]
			o.table, o.col, o.cells = o.tmpl.table, "base_r", 4
		case kindDeltaDelete:
			mutate(&o, week)
			o.cells = 2
		}
		script = append(script, o)
	}
	p.scripts = [][]op{script}
	p.setup = func(tr *tracer) (*instance, error) {
		in := &instance{cat: catalog{}, pristineVG: map[string]relation.VGFunc{}}
		sp := tr.start("setup.generate", 0, -1)
		in.cat.add(workload.Portfolio(cfgP))
		in.cat.add(workload.Galaxy(cfgG))
		tr.end(sp)
		for _, t := range twoDay {
			vg, err := in.cat[t.table].VG("gain")
			if err != nil {
				return nil, err
			}
			in.pristineVG[t.table] = vg
		}
		in.eng = p.newEngine(in.cat, engine.Options{})
		// Warm-up asks with the ops' own seed: every first re-ask then finds
		// an entry to retain, invalidate or warm-start from.
		sp = tr.start("setup.warm_up", 0, -1)
		defer tr.end(sp)
		for _, t := range p.templates {
			if _, err := in.eng.Query(context.Background(), t.request(1)); err != nil {
				return nil, fmt.Errorf("warm-up of %s: %w", t.id, err)
			}
		}
		return in, nil
	}
	return p.ready()
}

// scaledVG is the re-fitted distribution of a delta_vg op: the generator's
// variable times a factor.
type scaledVG struct {
	inner relation.VGFunc
	scale float64
}

func (v *scaledVG) Value(src rng.Source, tuple, scenario int) float64 {
	return v.scale * v.inner.Value(src, tuple, scenario)
}

func (v *scaledVG) ExactMean(tuple int) float64 { return v.scale * v.inner.ExactMean(tuple) }

// makeDelta draws the op's mutation from its own stream, against the
// table's current size and values. Mutations of columns no query reads follow
// -seed. Mutations that change what a query reads are drawn from the data
// seed instead: which cells move decides how deep the re-solve's search goes,
// so they belong to the definition of the work, like the tables themselves.
func makeDelta(in *instance, o *op, seed uint64, index int) (*relation.Delta, error) {
	rel := in.cat[o.table]
	if o.kind != kindDelta && o.kind != kindDeltaMiss {
		seed = dataSeed
	}
	s := rng.NewStream(rng.Mix(seed, 0xce11, uint64(index)))
	n := rel.N()
	tuples := map[int]bool{}
	for len(tuples) < o.cells && len(tuples) < n {
		tuples[s.IntN(n)] = true
	}
	switch o.kind {
	case kindDeltaDelete:
		d := &relation.Delta{}
		for t := range tuples {
			d.Delete = append(d.Delete, t)
		}
		sort.Ints(d.Delete)
		return d, nil
	case kindDeltaVG:
		scale := 0.9 + 0.2*s.Float64()
		vg := &scaledVG{inner: in.pristineVG[o.table], scale: scale}
		means := make([]float64, n)
		for t := range means {
			means[t] = vg.ExactMean(t)
		}
		return &relation.Delta{SetVG: map[string]relation.VGUpdate{o.col: {VG: vg, Means: means}}}, nil
	}
	// Cell sets move a value by at most ±5 %: enough to invalidate what
	// reads it, not enough to turn the query into a different problem.
	patch := map[int]float64{}
	ordered := make([]int, 0, len(tuples))
	for t := range tuples {
		ordered = append(ordered, t)
	}
	sort.Ints(ordered)
	for _, t := range ordered {
		if o.kind == kindDelta {
			// Two clients patch concurrently: write a fresh value rather
			// than read the one the other client may be replacing.
			patch[t] = 100 * s.Float64()
			continue
		}
		old, err := rel.DetValue(o.col, t)
		if err != nil {
			return nil, err
		}
		patch[t] = old * (0.95 + 0.1*s.Float64())
	}
	return &relation.Delta{Set: map[string]map[int]float64{o.col: patch}}, nil
}
