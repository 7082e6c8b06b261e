// Package spq is a stochastic package query engine for probabilistic
// databases — a from-scratch Go implementation of "Stochastic Package
// Queries in Probabilistic Databases" (Brucato, Yadav, Abouzied, Haas,
// Meliou; SIGMOD 2020).
//
// A package query selects a bag of tuples (with multiplicities) from a
// relation that jointly satisfies package-level constraints while optimizing
// an objective. This engine extends package queries to *probabilistic* data
// in the Monte Carlo model: uncertain attribute values are random variables
// realized by VG (variable generation) functions, and queries may contain
// expectation constraints, probabilistic ("chance") constraints, and
// expected-value or probability objectives, written in the sPaQL dialect:
//
//	SELECT PACKAGE(*) FROM Stock_Investments
//	SUCH THAT
//	    SUM(price) <= 1000 AND
//	    SUM(gain) >= -10 WITH PROBABILITY >= 0.95
//	MAXIMIZE EXPECTED SUM(gain)
//
// Two evaluation strategies are provided: Naive, the stochastic-programming
// baseline that approximates the stochastic ILP with a scenario-expanded
// deterministic ILP (sample average approximation), and SummarySearch — the
// paper's contribution — which replaces scenario sets with small
// conservative summaries and is typically orders of magnitude faster at
// reaching validation-feasible, near-optimal packages.
//
// Quick start:
//
//	db := spq.NewDB()
//	rel := spq.NewRelation("trades", n)
//	rel.AddDet("price", prices)
//	rel.AddStoch("gain", &spq.IndependentVG{AttrID: 1, Dists: gains})
//	db.Register(rel)
//	result, err := db.Query(querySQL, nil)
//
// For serving many queries — or one query on many cores — the concurrent
// execution engine wraps the same algorithms with a bounded-concurrency
// session layer, an LRU plan cache, per-query timeouts, and parallel
// scenario generation and validation (bit-identical to sequential for any
// worker count):
//
//	eng := spq.NewEngine(db, nil)
//	res, err := eng.Query(ctx, spq.EngineRequest{Query: querySQL})
//
// The same engine backs the cmd/spqd daemon, which serves one versioned
// async API — POST /v1/queries submits a job, GET polls it with streamed
// per-iteration progress (fed by the Options.Progress seam of the core
// algorithms), DELETE cancels — with typed options, a structured error
// envelope with stable codes, and GET /healthz + GET /stats. The spq/client
// package is the typed Go client for that surface (Submit, Wait, Stream,
// Cancel, Run = Submit + Wait, automatic 429 retries); cmd/spq's -server
// flag rides on it.
//
// See OPERATIONS.md for running the daemon.
//
// The heavy lifting lives in internal packages (solver, translation,
// algorithms, engine); this package re-exports the types a client needs.
package spq

import (
	"context"
	"fmt"
	"io"
	"strings"

	"spq/client"
	"spq/internal/core"
	"spq/internal/dist"
	"spq/internal/engine"
	"spq/internal/relation"
	"spq/internal/rng"
	"spq/internal/sketch"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// Re-exported data-model types. A Relation is an in-memory Monte Carlo
// relation: deterministic columns plus stochastic attributes backed by VG
// functions.
type (
	// Relation is a Monte Carlo relation (see internal/relation).
	Relation = relation.Relation
	// VGFunc generates realizations of a stochastic attribute.
	VGFunc = relation.VGFunc
	// IndependentVG realizes each tuple independently from a distribution.
	IndependentVG = relation.IndependentVG
	// GroupedVG realizes correlated tuple groups from a shared experiment.
	GroupedVG = relation.GroupedVG

	// Dist is a samplable distribution for VG functions.
	Dist = dist.Dist
	// Stream is a deterministic random substream.
	Stream = rng.Stream
	// Source derives substreams for scenario coordinates.
	Source = rng.Source

	// Options tune query evaluation (scenario counts, limits, seeds).
	Options = core.Options
	// Solution is the raw algorithm output.
	Solution = core.Solution
	// Query is a parsed sPaQL statement.
	Query = spaql.Query
)

// Distribution constructors re-exported for building VG functions.
type (
	// Normal is the Gaussian distribution.
	Normal = dist.Normal
	// Uniform is the continuous uniform distribution.
	Uniform = dist.Uniform
	// Exponential is the (shifted) exponential distribution.
	Exponential = dist.Exponential
	// Pareto is the Pareto type-I distribution.
	Pareto = dist.Pareto
	// Poisson is the (shifted) Poisson distribution.
	Poisson = dist.Poisson
	// StudentT is Student's t distribution.
	StudentT = dist.StudentT
	// GBM is a geometric Brownian motion price process.
	GBM = dist.GBM
	// Degenerate is a point mass.
	Degenerate = dist.Degenerate
	// Mixture is a finite mixture distribution.
	Mixture = dist.Mixture
	// Shifted offsets another distribution by a constant.
	Shifted = dist.Shifted
)

// NewRelation creates an empty Monte Carlo relation with n tuples.
func NewRelation(name string, n int) *Relation { return relation.New(name, n) }

// ReadCSV loads a relation's deterministic columns from CSV (header row of
// column names, numeric values).
func ReadCSV(name string, r io.Reader) (*Relation, error) { return relation.ReadCSV(name, r) }

// SpillCSV streams a CSV into per-column files under dir and returns a
// relation whose deterministic columns load lazily from those files — the
// out-of-core path for catalogs too large to hold on the heap.
func SpillCSV(name string, r io.Reader, dir string) (*Relation, error) {
	return relation.SpillCSV(name, r, dir, nil)
}

// OpenColumnDir reopens a relation previously spilled with SpillCSV without
// re-reading the CSV.
func OpenColumnDir(dir string) (*Relation, error) {
	return relation.OpenColumnDir(dir, nil)
}

// Mutable-relation re-exports (see internal/relation/delta.go): a Delta is a
// batch mutation applied to a base relation with Relation.ApplyDelta; the
// returned ChangeSet records the version transition and footprint that the
// engine's delta-scoped invalidation keys off. Snapshots taken before a delta
// keep serving their frozen version.
type (
	// Delta is a batch mutation: cell upserts, VG replacements, tuple
	// deletes, and tuple appends, applied atomically as one new version.
	Delta = relation.Delta
	// VGUpdate replaces a stochastic attribute's VG function in a Delta.
	VGUpdate = relation.VGUpdate
	// ChangeSet is the footprint of one or more applied deltas: the columns
	// and tuples touched, and whether membership changed.
	ChangeSet = relation.ChangeSet
	// DeltaStatsSnapshot is a snapshot of the package-wide delta counters.
	DeltaStatsSnapshot = relation.DeltaStatsSnapshot
)

// DeltaStats snapshots the process-wide delta and partition-maintenance
// counters (cells patched, shards rebuilt vs retained).
func DeltaStats() DeltaStatsSnapshot { return relation.DeltaStats() }

// NewSource creates a root randomness source for scenario generation.
func NewSource(seed uint64) Source { return rng.NewSource(seed) }

// UniformMixture builds an equal-weight mixture (the data-integration model
// for D equally trusted sources).
func UniformMixture(components ...Dist) Mixture { return dist.UniformMixture(components...) }

// ParseQuery parses sPaQL text into a Query AST without executing it.
func ParseQuery(text string) (*Query, error) { return spaql.Parse(text) }

// ErrInfeasible reports a query whose deterministic constraints are already
// unsatisfiable.
var ErrInfeasible = core.ErrInfeasible

// Partition-aware pipeline re-exports (see internal/relation and
// internal/core): a Partitioning is a first-class, per-version-cached
// shard/group descriptor the sketch layer and the engine plan against; a
// Solver is the seam between problem producers and the algorithms.
type (
	// Partitioning is a cached tuple partitioning (shards → groups →
	// tuples) of one relation version.
	Partitioning = relation.Partitioning
	// PartitionSpec describes how to build a Partitioning.
	PartitionSpec = relation.PartitionSpec
	// Solver is the pluggable solve seam (SummarySearch, Naive, future
	// parallel branch-and-bound).
	Solver = core.Solver
)

// Solvers behind the core.Solver seam.
var (
	// SummarySearchSolver is the paper's algorithm (the default).
	SummarySearchSolver = core.SummarySearchSolver
	// NaiveSolver is the SAA baseline.
	NaiveSolver = core.NaiveSolver
)

// Concurrent execution engine re-exports (see internal/engine): a
// bounded-concurrency session layer with a plan cache and per-query
// timeouts, suitable for serving heavy query traffic.
type (
	// Engine is the concurrent query-execution engine.
	Engine = engine.Engine
	// EngineOptions tune concurrency, admission control, and the plan cache.
	EngineOptions = engine.Options
	// EngineRequest describes one engine query.
	EngineRequest = engine.Request
	// EngineResult is the outcome of an engine query.
	EngineResult = engine.Result
	// EngineStats is a snapshot of the engine's counters.
	EngineStats = engine.Stats
	// TenantConfig describes one tenant lane of the engine's weighted-fair
	// admission scheduler (EngineOptions.Tenants).
	TenantConfig = engine.TenantConfig
	// ClassBudget is a per-query-class evaluation budget
	// (EngineOptions.Classes); a binding budget degrades the answer to the
	// anytime best-so-far package instead of failing the query.
	ClassBudget = engine.ClassBudget
)

// Async job API re-exports (the v1 surface; see internal/engine/jobs.go
// and the spq/client package).
type (
	// Progress is one per-iteration report of a running evaluation,
	// delivered through Options.Progress (and streamed by the v1 API).
	Progress = core.Progress
	// Job is an asynchronous engine query: Engine.Submit returns one;
	// poll it with Snapshot/Poll, abort it with Engine.CancelJob.
	Job = engine.Job
	// JobState is a Job's lifecycle state (queued → running → terminal).
	JobState = client.JobState
)

// ErrOverloaded reports an engine query rejected by admission control.
var ErrOverloaded = engine.ErrOverloaded

// ErrTenantQuota reports an engine query rejected by its own tenant's queue
// quota while the engine as a whole still had room.
var ErrTenantQuota = engine.ErrTenantQuota

// ErrDegraded reports an engine-applied budget that bound before any
// feasible package existed; when an incumbent does exist the engine returns
// it with EngineResult.Degraded set instead of this error.
var ErrDegraded = engine.ErrDegraded

// NewEngine creates a concurrent execution engine over the database's
// registered relations. Opts may be nil for defaults (one solve slot and one
// validation worker per CPU, 128-entry plan cache, 60s query timeout).
func NewEngine(db *DB, opts *EngineOptions) *Engine { return engine.New(db, opts) }

// DB is a registry of Monte Carlo relations that evaluates sPaQL queries
// against them. It plays the role of the DBMS layer in the paper's
// architecture (storage, mean precomputation, query entry point).
type DB struct {
	tables map[string]*Relation
	// MeansM is the scenario count used to estimate attribute means that
	// have no closed form, at Register time (default 2000; at least 1).
	MeansM int
	// MeansSeed seeds the mean-estimation stream.
	MeansSeed uint64
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Relation{}, MeansM: 2000, MeansSeed: 0xea7}
}

// Register adds a relation under its own name and precomputes means for its
// stochastic attributes (the paper's §3.2 precomputation phase). The means
// stream is derived from the registration ordinal, so registering the same
// tables in the same order gives the same means.
func (db *DB) Register(rel *Relation) error {
	name := strings.ToLower(rel.Name())
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("spq: table %q already registered", rel.Name())
	}
	if db.MeansM < 1 {
		return fmt.Errorf("spq: MeansM is %d; mean estimation needs at least 1 scenario", db.MeansM)
	}
	rel.ComputeMeans(rng.NewSource(db.MeansSeed).Derive(uint64(len(db.tables))), db.MeansM)
	db.tables[name] = rel
	return nil
}

// Table returns a registered relation (case-insensitive).
func (db *DB) Table(name string) (*Relation, bool) {
	rel, ok := db.tables[strings.ToLower(name)]
	return rel, ok
}

// Result is the outcome of a query evaluation, tying the algorithm solution
// back to the relation so packages can be rendered.
type Result struct {
	*Solution
	// Query is the parsed statement.
	Query *Query
	// Rel is the relation the multiplicities index (after WHERE filtering).
	Rel *Relation
}

// Multiplicities returns the package as a map from base-relation tuple index
// to copy count.
func (r *Result) Multiplicities() map[int]int {
	out := map[int]int{}
	for i, x := range r.X {
		if x > 0 {
			out[r.Rel.OrigIndex(i)] += int(x + 0.5)
		}
	}
	return out
}

// String renders a summary of the result.
func (r *Result) String() string {
	var sb strings.Builder
	status := "INFEASIBLE"
	if r.Feasible {
		status = "feasible"
	}
	fmt.Fprintf(&sb, "package: %s, %d distinct tuples, size %.0f, objective %.6g (M=%d",
		status, len(r.Multiplicities()), r.PackageSize(), r.Objective, r.M)
	if r.Z > 0 {
		fmt.Fprintf(&sb, ", Z=%d", r.Z)
	}
	sb.WriteString(")")
	return sb.String()
}

// prepare parses, validates, and lowers a query against the registry.
func (db *DB) prepare(text string) (*Query, *translate.SILP, error) {
	q, err := spaql.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	rel, ok := db.Table(q.Table)
	if !ok {
		return nil, nil, fmt.Errorf("spq: unknown table %q", q.Table)
	}
	silp, err := translate.Build(q, rel, nil)
	if err != nil {
		return nil, nil, err
	}
	return q, silp, nil
}

// Query evaluates an sPaQL query with SummarySearch (the paper's algorithm
// and this engine's default).
func (db *DB) Query(text string, opts *Options) (*Result, error) {
	q, silp, err := db.prepare(text)
	if err != nil {
		return nil, err
	}
	sol, err := core.SummarySearch(silp, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Solution: sol, Query: q, Rel: silp.Rel}, nil
}

// SketchOptions tune the sketch-refine scale-up layer.
type SketchOptions = sketch.Options

// SketchStats report what the sketch layer did (groups, candidates, times).
type SketchStats = sketch.Stats

// QuerySketch evaluates an sPaQL query with the SketchRefine-style
// divide-and-conquer pipeline: cluster tuples into groups (cached on the
// relation per version), solve the query over group representatives (the
// sketch — split across SketchOptions.Shards independent solves, run
// concurrently by SketchOptions.Workers, bit-identical for any worker
// count), then re-solve over the tuples of the selected groups (the
// refine). Intended for relations too large for direct evaluation; see
// internal/sketch.
//
// Partitionings are cached on the (WHERE-filtered) relation per version.
// Queries with no WHERE clause therefore never re-cluster across calls; a
// WHERE-bearing query builds a fresh filtered view — and with it a fresh
// clustering — each call, because DB keeps no plan cache by design. For
// repeated WHERE-bearing sketch queries use the engine (method "sketch"),
// whose plan cache keeps the view, and hence the partitioning, alive.
func (db *DB) QuerySketch(text string, opts *Options, sopts *SketchOptions) (*Result, *SketchStats, error) {
	q, silp, err := db.prepare(text)
	if err != nil {
		return nil, nil, err
	}
	sol, stats, err := sketch.SolveSILP(context.Background(), silp, opts, sopts)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Solution: sol, Query: q, Rel: silp.Rel}, stats, nil
}

// QueryNaive evaluates an sPaQL query with the Naïve SAA baseline
// (Algorithm 1), provided for comparison and experiments.
func (db *DB) QueryNaive(text string, opts *Options) (*Result, error) {
	q, silp, err := db.prepare(text)
	if err != nil {
		return nil, err
	}
	sol, err := core.Naive(silp, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Solution: sol, Query: q, Rel: silp.Rel}, nil
}

// Explain returns the canonicalized SILP description of a query without
// solving it: constraint counts, derived bounds, and the DILP size the SAA
// formulation would have at the given scenario count.
func (db *DB) Explain(text string, m int) (string, error) {
	q, silp, err := db.prepare(text)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", q.String())
	fmt.Fprintf(&sb, "tuples after WHERE: %d\n", silp.N)
	fmt.Fprintf(&sb, "deterministic/expectation constraints: %d\n", len(silp.DetCons))
	fmt.Fprintf(&sb, "probabilistic constraints: %d\n", len(silp.ProbCons))
	for _, pc := range silp.ProbCons {
		op := "<="
		if pc.Geq {
			op = ">="
		}
		fmt.Fprintf(&sb, "  %s: Pr(SUM(%s) %s %g) >= %g  [summary direction: %s]\n",
			pc.Name, pc.Expr.String(), op, pc.V, pc.P, pc.Direction())
	}
	switch silp.ObjKind {
	case translate.ObjLinear:
		sense := "minimize"
		if silp.Maximize {
			sense = "maximize"
		}
		fmt.Fprintf(&sb, "objective: %s expected linear sum\n", sense)
	case translate.ObjProbability:
		op := "<="
		if silp.ObjGeq {
			op = ">="
		}
		fmt.Fprintf(&sb, "objective: maximize Pr(SUM(%s) %s %g)\n", silp.ObjExpr.String(), op, silp.ObjV)
	default:
		sb.WriteString("objective: none (feasibility)\n")
	}
	if m > 0 && len(silp.ProbCons) > 0 {
		// Θ(NMK) coefficient estimate for the SAA DILP.
		k := len(silp.ProbCons)
		fmt.Fprintf(&sb, "SAA DILP size at M=%d: ~%d coefficients (Θ(NMK))\n", m, silp.N*m*k)
		fmt.Fprintf(&sb, "CSA DILP size at Z=1: ~%d coefficients (Θ(NZK))\n", silp.N*k)
	}
	return sb.String(), nil
}
