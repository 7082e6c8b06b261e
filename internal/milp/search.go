package milp

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spq/internal/lp"
	"spq/internal/par"
)

// The branch-and-bound search is an explicit node pool rather than a
// recursive depth-first dive. Nodes are read-only while a round runs: each
// carries one bound delta (the branching variable's new interval) plus a
// parent pointer, so any worker can materialize a node's full bound vectors
// into private scratch space and solve its LP without coordination. This removes
// the old dive's unbounded goroutine-stack growth (one frame per fixed
// binary) and is what makes concurrent exploration possible at all.
//
// The LP kernel is engaged through three throughput levers (see DESIGN.md
// "LP kernel"):
//
//   - the model is presolved once at the root (lp.PresolveProblem, integer
//     aware) and the whole search runs in the reduced space; solutions are
//     postsolved back before they become incumbents;
//   - every child node carries its parent's optimal basis and each node LP
//     is warm-started from it (dual-simplex reinstatement instead of
//     phase 1), with per-worker lp.Scratch reused across node solves;
//   - the node loop allocates nothing: a node's LP solve lives in its
//     worker's lp.Scratch, bases are snapshotted only at branching nodes into
//     buffers recycled through per-worker free lists, nodes come from slabs,
//     and the frontier is a stack that rounds pop from and push back onto;
//   - branch variables are chosen by pseudocosts seeded from
//     most-fractional, learned from realized objective degradations.
//
// Determinism contract: results (Status, X, Obj, Bound, Nodes) are
// bit-identical for every Options.Parallelism value. The search processes the
// frontier in synchronization rounds of at most roundSize nodes. Within a
// round every node's disposition (prune / branch / incumbent candidate) is a
// pure function of the node and the round-start incumbent snapshot — workers
// never read the live incumbent — so the round's outcome is a deterministic
// map over its nodes and worker count only changes the schedule. Candidates
// are merged back in frontier order, with objective ties broken toward the
// smaller canonical path id (down-branch = 0, up-branch = 1, compared
// lexicographically), so simultaneous equal-objective discoveries in one
// round resolve identically no matter which worker got there first. The new
// kernel state stays inside this contract: a node's warm-start basis is its
// parent's optimal basis — itself a pure function of the parent's bounds,
// seed basis and options, by induction on the tree — and the pseudocost
// table mutates only between rounds, folded in frontier merge order, so
// every in-round pickBranchVar reads the same table snapshot regardless of
// which worker runs it.

// roundSize is the number of frontier nodes evaluated per synchronization
// round. It is a fixed constant, NOT derived from Options.Parallelism or
// GOMAXPROCS: round boundaries decide which incumbent snapshot a node is
// pruned against, so they must be identical for every worker count. Larger
// values expose more parallelism per round; smaller values tighten pruning
// (the snapshot lags the live incumbent by at most one round).
const roundSize = 64

// nodeBasis is a branching node's optimal basis, the warm start of its
// children. refs counts the children not yet solved; when the merge section
// brings it to zero the buffer goes back to a worker's free list.
type nodeBasis struct {
	lp.Basis
	refs int
}

// bbNode is one open branch-and-bound subproblem: the parent's bounds
// narrowed by [lo, hi] on branchVar. Workers only read nodes and share them
// without locks; the single-goroutine merge section between rounds is the
// only writer (it fills nodes in, releases seed once the node has been
// processed, counts open, and reuses a node whose subtree is retired).
type bbNode struct {
	parent    *bbNode
	branchVar int
	lo, hi    float64
	digit     byte // canonical path digit: 0 = down (≤ floor), 1 = up (≥ ceil)
	depth     int32
	// open counts the children whose subtrees are not fully retired; the
	// merge section sets it and recycles the node when it returns to zero.
	open int32

	// seed is the parent's optimal basis, the node LP's warm start, shared
	// with the sibling. It is released after the node is processed so deep
	// trees do not retain one snapshot per ancestor.
	seed *nodeBasis
	// parentObj is the parent's (reduced-space) LP objective and frac the
	// branch variable's fractional part at the parent optimum; together
	// they turn this node's LP bound into a pseudocost observation.
	parentObj float64
	frac      float64
}

// pathOf materializes the node's canonical path id (root = empty). Seeded
// incumbents (InitialX, root rounding) use the empty path, so they win
// objective ties against any search-discovered point — the same "strict
// improvement only" rule the sequential dive applied to them.
func pathOf(n *bbNode) []byte {
	if n == nil {
		return nil
	}
	p := make([]byte, n.depth)
	for a := n; a != nil; a = a.parent {
		p[a.depth-1] = a.digit
	}
	return p
}

// incumbent is a best-known integer-feasible point; x == nil means none.
// x lives in the full model space (postsolved), obj includes the presolve
// objective offset.
type incumbent struct {
	x    []float64
	obj  float64
	path []byte
}

// replaces reports whether cand supersedes cur: strictly better objective,
// or an equal objective with a lexicographically smaller canonical path id.
// bytes.Compare orders a prefix before its extensions, which is the right
// ordering here: a prefix corresponds to a shallower (earlier) discovery.
func replaces(cand, cur incumbent) bool {
	if cand.x == nil {
		return false
	}
	if cur.x == nil {
		return true
	}
	if cand.obj != cur.obj {
		return cand.obj < cur.obj
	}
	return bytes.Compare(cand.path, cur.path) < 0
}

// bbScratch is per-worker reusable state: bound materialization buffers, the
// worker's lp.Scratch, in which every one of its node solves lives, and its
// free list of basis buffers.
type bbScratch struct {
	lo, hi  []float64 // root bounds, overridden at touched by the previous node's path
	touched []int
	stamp   []int // stamp[j] == epoch ⟹ var j already overridden this node
	epoch   int
	lp      *lp.Scratch
	// bases is popped by the worker during a round and refilled only by the
	// merge section between rounds, so it needs no lock.
	bases []*nodeBasis
}

func (sc *bbScratch) takeBasis() *nodeBasis {
	if k := len(sc.bases) - 1; k >= 0 {
		b := sc.bases[k]
		sc.bases = sc.bases[:k]
		return b
	}
	return &nodeBasis{}
}

// poisonRecycled is switched on by this package's tests: an LP point the
// search is done with is overwritten with NaN, so code that still read it
// after the worker's next solve reused the memory would change a result
// instead of passing by luck. (A recycled basis needs no switch: Reset makes
// it unloadable, which the warm-start counters show.)
var poisonRecycled bool

func releaseX(x []float64) {
	if poisonRecycled {
		for j := range x {
			x[j] = math.NaN()
		}
	}
}

// pseudocosts is the per-variable branching history: average objective
// degradation per unit of fractional distance, kept separately for the down
// and the up branch. It is read (possibly concurrently) during rounds and
// mutated only between rounds, in frontier merge order, so its state at
// round start is deterministic for every worker count.
type pseudocosts struct {
	downSum, upSum []float64
	downCnt, upCnt []int
	gSum           float64 // global fallback for sides with no history yet
	gCnt           int
}

func newPseudocosts(n int) *pseudocosts {
	return &pseudocosts{
		downSum: make([]float64, n),
		upSum:   make([]float64, n),
		downCnt: make([]int, n),
		upCnt:   make([]int, n),
	}
}

func (pc *pseudocosts) observe(j int, up bool, unit float64) {
	if up {
		pc.upSum[j] += unit
		pc.upCnt[j]++
	} else {
		pc.downSum[j] += unit
		pc.downCnt[j]++
	}
	pc.gSum += unit
	pc.gCnt++
}

// rate returns the estimated per-unit degradation of branching variable j in
// the given direction, falling back to the global average when that side has
// no observations yet.
func (pc *pseudocosts) rate(j int, up bool) float64 {
	if up {
		if pc.upCnt[j] > 0 {
			return pc.upSum[j] / float64(pc.upCnt[j])
		}
	} else if pc.downCnt[j] > 0 {
		return pc.downSum[j] / float64(pc.downCnt[j])
	}
	return pc.gSum / float64(pc.gCnt) // gCnt > 0 whenever rate is consulted
}

// bbResult is the disposition of one processed node.
type bbResult struct {
	done     bool      // false when a limit stopped the worker before this node
	complete bool      // subtree fully resolved (pruned/feasible/infeasible/branched)
	kids     [2]bbNode // kids[:nkids] are the open subproblems, in preferred exploration
	nkids    int       // order; the merge section copies them into nodes of its own
	cand     incumbent // integer-feasible point found here (x nil if none)
	lpIters  int       // simplex iterations spent on this node's LP solve
	warm     bool      // the node LP accepted its warm-start basis
	degen    int       // degenerate pivots in this node's LP solve
	flips    int       // dual bound flips in this node's LP solve
	hasObs   bool      // a pseudocost observation was realized at this node
	obsVar   int
	obsUp    bool
	obsUnit  float64
	err      error
}

// search carries the state of one Solve invocation. The incumbent, node
// counter and pseudocost table are touched only between rounds
// (single-goroutine sections); workers communicate exclusively through their
// bbResult slots.
type search struct {
	model  *Model
	pr     *lp.Presolved
	red    *lp.Problem // presolved problem; all node LPs solve this
	opts   Options
	lpOpts lp.Options

	deadline time.Time
	hasDL    bool

	rootLo, rootHi []float64 // reduced-space presolved bounds (Postsolve never reads them), tightened by fixRoot
	redInteger     []bool    // integrality mask in reduced space
	impLo, impHi   []float64 // root-implied bounds per reduced integer var
	objOffset      float64   // reduced obj + objOffset = full obj
	rootD          []float64 // root LP reduced costs, captured once the root branches
	rootBound      float64   // the root LP's Lagrangian bound under rootD

	inc        incumbent
	nodes      int
	lpIters    int // total simplex iterations, accumulated between rounds
	warmStarts int
	degen      int
	flips      int
	rounds     int
	workers    int
	pc         *pseudocosts
	scratches  []*bbScratch
	results    []bbResult // one slot per node of the current round
	slab       []bbNode   // fresh nodes are appended here; a full slab is left to its nodes
	free       *bbNode    // retired nodes, linked through parent, reused before the slab grows
}

// Solve runs branch and bound on the model.
func Solve(m *Model, o *Options) (*Result, error) {
	opts := o.withDefaults()
	prob, err := m.build()
	if err != nil {
		return nil, err
	}
	st := &search{
		model: m,
		opts:  opts,
		inc:   incumbent{obj: math.Inf(1)},
	}
	if opts.TimeLimit > 0 {
		st.deadline = time.Now().Add(opts.TimeLimit)
		st.hasDL = true
	}
	// Node LP solves inherit the caller's LP options plus the search's
	// cancellation channel and deadline, so aborts land mid-iteration. A
	// caller-supplied LP.Cancel/LP.Deadline is kept when the search adds
	// none of its own (the deadline merge keeps whichever is earlier).
	st.lpOpts = opts.LP
	st.lpOpts.Fix = lp.Fix{} // the search's own hook, set per node
	if opts.Cancel != nil {
		st.lpOpts.Cancel = opts.Cancel
	}
	if st.hasDL && (st.lpOpts.Deadline.IsZero() || st.deadline.Before(st.lpOpts.Deadline)) {
		st.lpOpts.Deadline = st.deadline
	}
	st.workers = par.Workers(opts.Parallelism, roundSize)
	if opts.InitialX != nil {
		if obj, ok := st.checkFeasible(opts.InitialX); ok {
			st.inc = incumbent{x: append([]float64(nil), opts.InitialX...), obj: obj}
		}
	}

	// Root presolve: reduce once, search the reduced space. The reductions
	// are integrality-aware, so the reduced problem is an equivalent MILP
	// root and every node bound only tightens it further.
	fullLo := make([]float64, len(m.vars))
	fullHi := make([]float64, len(m.vars))
	integer := make([]bool, len(m.vars))
	for j, v := range m.vars {
		fullLo[j], fullHi[j], integer[j] = v.lo, v.hi, v.integer
	}
	st.pr = lp.PresolveProblem(prob, fullLo, fullHi, integer)
	res := &Result{
		Coefficients: m.NumCoefficients(),
		Workers:      st.workers,
		PresolveRows: st.pr.RowsRemoved,
		PresolveCols: st.pr.ColsRemoved,
	}
	if st.pr.Infeasible {
		if st.inc.x != nil {
			res.Status, res.X, res.Obj, res.Bound = StatusFeasible, st.inc.x, st.inc.obj, math.Inf(1)
			return res, nil
		}
		res.Status, res.Bound = StatusInfeasible, math.Inf(1)
		return res, nil
	}
	if st.pr.Unbounded {
		res.Status, res.Bound = StatusUnbounded, math.Inf(-1)
		return res, nil
	}
	st.red = st.pr.Reduced
	st.objOffset = st.pr.ObjOffset
	st.rootLo = st.pr.Lo
	st.rootHi = st.pr.Hi
	nred := st.red.NumVars()
	st.redInteger = make([]bool, nred)
	for j := 0; j < nred; j++ {
		st.redInteger[j] = integer[st.pr.Col(j)]
	}
	st.pc = newPseudocosts(nred)
	// Root-implied bounds per integer variable: every child interval is
	// intersected with these, and an empty intersection drops the child
	// without an LP solve. Computed once against the root activity ranges —
	// node bounds only tighten, so the implication stays valid everywhere.
	act := st.red.NewRowActivity(st.rootLo, st.rootHi)
	st.impLo = make([]float64, nred)
	st.impHi = make([]float64, nred)
	for j := 0; j < nred; j++ {
		if st.redInteger[j] {
			st.impLo[j], st.impHi[j] = st.red.ImpliedVarBounds(act, j, true)
		} else {
			st.impLo[j], st.impHi[j] = math.Inf(-1), math.Inf(1)
		}
	}

	rootOpts := st.lpOpts
	rootOpts.Basis = st.opts.RootBasis
	rootOpts.Scratch = st.scratch(0).lp
	rootSol, err := lp.SolveWithBounds(st.red, st.rootLo, st.rootHi, &rootOpts)
	if err != nil {
		return nil, err
	}
	if rootSol.WarmStarted {
		st.warmStarts++
	}
	if st.opts.WantRootBasis && rootSol.Status == lp.StatusOptimal {
		// The caller keeps it across solves: its own copy, never a pooled one.
		res.RootBasis = new(lp.Basis)
		rootOpts.Scratch.SnapshotBasis(res.RootBasis)
	}
	st.nodes = 1
	st.lpIters = rootSol.Iters
	st.degen = rootSol.DegenPivots
	st.flips = rootSol.BoundFlips
	res.Bound = rootSol.Obj + st.objOffset
	res.LPIters = st.lpIters
	res.DegenPivots = st.degen
	res.BoundFlips = st.flips
	switch rootSol.Status {
	case lp.StatusInfeasible:
		if st.inc.x != nil {
			res.Status, res.X, res.Obj = StatusFeasible, st.inc.x, st.inc.obj
			return res, nil
		}
		res.Status = StatusInfeasible
		return res, nil
	case lp.StatusUnbounded:
		res.Status = StatusUnbounded
		return res, nil
	case lp.StatusIterLimit, lp.StatusCancelled:
		if st.inc.x != nil {
			res.Status, res.X, res.Obj = StatusFeasible, st.inc.x, st.inc.obj
			return res, nil
		}
		res.Status = StatusLimit
		return res, nil
	}
	// Rounding heuristic on the root relaxation for an early incumbent.
	st.tryRounding(rootSol.X)

	complete, err := st.run(rootSol)
	if err != nil {
		return nil, err
	}
	res.Nodes = st.nodes
	res.LPIters = st.lpIters
	res.Rounds = st.rounds
	res.WarmStarts = st.warmStarts
	res.DegenPivots = st.degen
	res.BoundFlips = st.flips
	switch {
	case st.inc.x != nil && complete:
		res.Status = StatusOptimal
		res.X, res.Obj = st.inc.x, st.inc.obj
	case st.inc.x != nil:
		res.Status = StatusFeasible
		res.X, res.Obj = st.inc.x, st.inc.obj
	case complete:
		res.Status = StatusInfeasible
	default:
		res.Status = StatusLimit
	}
	return res, nil
}

// run explores the tree under the already-solved root. It returns whether
// the search space was exhausted (i.e. the incumbent, if any, is exact).
func (st *search) run(rootSol *lp.Solution) (bool, error) {
	rootRes := st.dispose(nil, rootSol, st.inc, st.scratch(0))
	releaseX(rootSol.X)
	if replaces(rootRes.cand, st.inc) {
		st.inc = rootRes.cand
	}
	if rootRes.nkids > 0 && fixing {
		// The root solve is still live in worker 0's scratch.
		st.rootD = make([]float64, st.red.NumVars())
		st.rootBound = st.scratch(0).lp.ReducedCosts(st.rootD)
		st.fixRoot()
	}
	complete := rootRes.complete
	// The frontier is a stack with its top at the end: a round pops the top
	// k nodes, and their children are pushed back so that the first node's
	// preferred child is the new top. Exploration stays depth-first-shaped
	// and the untouched part of the frontier is never copied.
	stack := st.pushKids(nil, &rootRes)

	for len(stack) > 0 {
		if st.interrupted() {
			return false, nil
		}
		budget := st.opts.MaxNodes - st.nodes
		if budget <= 0 {
			return false, nil
		}
		k := min(roundSize, len(stack), budget)
		round := stack[len(stack)-k:] // node i of the round is round[k-1-i]
		if cap(st.results) < k {
			st.results = make([]bbResult, min(2*k, roundSize))
		}
		results := st.results[:k]
		clear(results)
		st.processRound(round, results)
		st.rounds++

		// Merge in round order: deterministic regardless of which worker
		// produced which result. Pseudocost observations fold in here, in the
		// same order, so the table every worker reads next round is
		// schedule-independent.
		cut := false
		for i := range results {
			r := &results[i]
			st.lpIters += r.lpIters // zero for slots a limit left unwritten
			if r.err != nil {
				return false, r.err
			}
			if !r.done {
				cut = true // a limit stopped the round partway
				continue
			}
			st.nodes++
			if r.warm {
				st.warmStarts++
			}
			st.degen += r.degen
			st.flips += r.flips
			if r.hasObs {
				st.pc.observe(r.obsVar, r.obsUp, r.obsUnit)
			}
			// The node is resolved; release its warm-start snapshot (its
			// children carry their own), and recycle it after its sibling's.
			n := round[k-1-i]
			b := n.seed
			n.seed = nil
			if b.refs--; b.refs == 0 {
				st.recycle(b)
			}
			if !r.complete {
				complete = false
			}
			if replaces(r.cand, st.inc) {
				st.inc = r.cand
				st.fixRoot()
			}
			n.open = int32(r.nkids)
			st.retire(n)
		}
		if cut {
			return false, nil
		}
		stack = stack[:len(stack)-k]
		for i := k - 1; i >= 0; i-- {
			stack = st.pushKids(stack, &results[i])
		}
	}
	return complete, nil
}

// retire puts n on the free list if it has no open child, and then every
// ancestor it was the last open child of: a node stays only while a
// descendant may still walk through it (bounds, path id). Merge section only.
func (st *search) retire(n *bbNode) {
	for n != nil && n.open == 0 {
		p := n.parent
		if p != nil {
			p.open--
		}
		if poisonRecycled {
			n.branchVar = -1 // a walk through a retired node indexes out of range
		}
		n.parent, st.free = st.free, n
		n = p
	}
}

// pushKids gives a result's children a node each — a retired one, else the
// next of the slab — and pushes them, preferred child last (on top).
func (st *search) pushKids(stack []*bbNode, r *bbResult) []*bbNode {
	for j := r.nkids - 1; j >= 0; j-- {
		n := st.free
		if n != nil {
			st.free = n.parent
		} else {
			if len(st.slab) == cap(st.slab) {
				st.slab = make([]bbNode, 0, min(2*cap(st.slab)+2, 1024))
			}
			st.slab = st.slab[:len(st.slab)+1]
			n = &st.slab[len(st.slab)-1]
		}
		*n = r.kids[j]
		stack = append(stack, n)
	}
	return stack
}

// recycle hands a basis no open node is seeded from any more to the worker
// with the fewest spare buffers. Merge section only.
func (st *search) recycle(b *nodeBasis) {
	b.Reset()
	to := st.scratches[0]
	for _, sc := range st.scratches[1:] {
		if len(sc.bases) < len(to.bases) {
			to = sc
		}
	}
	to.bases = append(to.bases, b)
}

// processRound evaluates one round of frontier nodes against a fixed
// incumbent snapshot. Workers steal the next unclaimed node from the round's
// shared pool via an atomic cursor; results land in per-node slots. round is
// a segment of the frontier stack, so the round's node i is round[k-1-i].
func (st *search) processRound(round []*bbNode, results []bbResult) {
	snap := st.inc
	k := len(round)
	workers := min(st.workers, k)
	if workers <= 1 {
		sc := st.scratch(0)
		for i := range results {
			if st.interrupted() {
				return
			}
			results[i] = st.process(round[k-1-i], snap, sc)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sc := st.scratch(w)
		wg.Add(1)
		go func(sc *bbScratch) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= k || st.interrupted() {
					return
				}
				results[i] = st.process(round[k-1-i], snap, sc)
			}
		}(sc)
	}
	wg.Wait()
}

// scratch returns worker w's reusable buffers, allocating on first use.
// Called only between rounds / before worker launch.
func (st *search) scratch(w int) *bbScratch {
	for len(st.scratches) <= w {
		st.scratches = append(st.scratches, nil)
	}
	if st.scratches[w] == nil {
		st.scratches[w] = &bbScratch{
			lo:    append([]float64(nil), st.rootLo...),
			hi:    append([]float64(nil), st.rootHi...),
			stamp: make([]int, st.red.NumVars()),
			lp:    &lp.Scratch{},
		}
	}
	return st.scratches[w]
}

// process materializes a node's bounds, solves its LP relaxation warm-started
// from the parent basis, and returns its disposition relative to the
// incumbent snapshot.
func (st *search) process(n *bbNode, snap incumbent, sc *bbScratch) bbResult {
	// Back to the root bounds where the previous node left them, then this
	// node's path: O(depth), not O(n), for the same values.
	sc.epoch++
	for _, j := range sc.touched {
		sc.lo[j], sc.hi[j] = st.rootLo[j], st.rootHi[j]
	}
	sc.touched = sc.touched[:0]
	// Walk leaf → root; the first (deepest) override of a variable wins,
	// since branch intervals on one variable nest along a path. Each is cut
	// to the root box, which fixRoot may have tightened since the node was
	// made; an empty interval settles the node without an LP solve.
	for a := n; a != nil; a = a.parent {
		if j := a.branchVar; sc.stamp[j] != sc.epoch {
			sc.stamp[j] = sc.epoch
			sc.touched = append(sc.touched, j)
			sc.lo[j], sc.hi[j] = max(a.lo, st.rootLo[j]), min(a.hi, st.rootHi[j])
			if sc.lo[j] > sc.hi[j] {
				return bbResult{done: true, complete: true}
			}
		}
	}
	opts := st.lpOpts
	opts.Basis = &n.seed.Basis
	opts.Scratch = sc.lp
	if snap.x != nil && fixing {
		opts.Fix = lp.Fix{Integer: st.redInteger, Cutoff: st.cutoff(snap) - st.objOffset}
	}
	sol, err := lp.SolveWithBounds(st.red, sc.lo, sc.hi, &opts)
	if err != nil {
		return bbResult{done: true, err: err}
	}
	// sol lives in sc.lp until the worker's next solve; dispose copies what
	// the result keeps.
	out := st.dispose(n, sol, snap, sc)
	out.lpIters = sol.Iters
	out.warm = sol.WarmStarted
	out.degen = sol.DegenPivots
	out.flips = sol.BoundFlips
	// Realized objective degradation → pseudocost observation. Only optimal
	// node solves produce one (a pruned-by-status or limited solve has no
	// trustworthy bound).
	if sol.Status == lp.StatusOptimal {
		dist := n.frac
		if n.digit == 1 {
			dist = 1 - n.frac
		}
		if dist > 1e-9 {
			deg := sol.Obj - n.parentObj
			if deg < 0 {
				deg = 0
			}
			out.hasObs = true
			out.obsVar = n.branchVar
			out.obsUp = n.digit == 1
			out.obsUnit = deg / dist
		}
	}
	releaseX(sol.X)
	return out
}

// dispose classifies a solved node: prune, record an integer-feasible
// candidate, or branch into children. It must depend only on its arguments
// and between-round state (never the live incumbent) to keep rounds
// deterministic. sc is the scratch the node was solved in: it holds the
// node's bounds and, still live, the basis the children are seeded from.
func (st *search) dispose(n *bbNode, sol *lp.Solution, snap incumbent, sc *bbScratch) bbResult {
	switch sol.Status {
	case lp.StatusInfeasible:
		return bbResult{done: true, complete: true}
	case lp.StatusIterLimit, lp.StatusCancelled, lp.StatusUnbounded:
		// The subtree's bound cannot be trusted: leave it unresolved.
		return bbResult{done: true}
	}
	adjObj := sol.Obj + st.objOffset
	if adjObj >= st.cutoff(snap) {
		return bbResult{done: true, complete: true} // bound or gap prune
	}
	bv := st.pickBranchVar(sol.X)
	if bv < 0 {
		// Integer feasible: candidate incumbent (postsolved to full space).
		return bbResult{done: true, complete: true,
			cand: incumbent{x: st.pr.Postsolve(st.roundedCopy(sol.X)), obj: adjObj, path: pathOf(n)}}
	}
	val := sol.X[bv]
	floorV := math.Floor(val)
	depth := int32(1)
	if n != nil {
		depth = n.depth + 1
	}
	// Child intervals, intersected with the root-implied bounds of the
	// branch variable; an empty intersection proves the child's box holds no
	// row-feasible point and drops it without an LP solve.
	dLo, dHi := sc.lo[bv], floorV
	uLo, uHi := floorV+1, sc.hi[bv]
	if st.impLo[bv] > dLo {
		dLo = st.impLo[bv]
	}
	if st.impHi[bv] < dHi {
		dHi = st.impHi[bv]
	}
	if st.impLo[bv] > uLo {
		uLo = st.impLo[bv]
	}
	if st.impHi[bv] < uHi {
		uHi = st.impHi[bv]
	}
	frac := val - floorV
	down := bbNode{parent: n, branchVar: bv, lo: dLo, hi: dHi, digit: 0, depth: depth,
		parentObj: sol.Obj, frac: frac}
	up := bbNode{parent: n, branchVar: bv, lo: uLo, hi: uHi, digit: 1, depth: depth,
		parentObj: sol.Obj, frac: frac}
	// Explore the side nearer the LP value first.
	first, second := down, up
	if frac > 0.5 {
		first, second = up, down
	}
	out := bbResult{done: true, complete: true}
	for _, c := range [2]bbNode{first, second} {
		if c.lo <= c.hi {
			out.kids[out.nkids] = c
			out.nkids++
		}
	}
	if out.nkids > 0 {
		// Only a node that branches pays for a snapshot of its basis.
		b := sc.takeBasis()
		sc.lp.SnapshotBasis(&b.Basis)
		b.refs = out.nkids
		for i := range out.kids[:out.nkids] {
			out.kids[i].seed = b
		}
	}
	return out
}

// interrupted reports whether the search hit its wall-clock limit or was
// cancelled. Safe for concurrent use (reads immutable fields only).
func (st *search) interrupted() bool {
	if st.opts.Cancel != nil {
		select {
		case <-st.opts.Cancel:
			return true
		default:
		}
	}
	return st.hasDL && time.Now().After(st.deadline)
}

// cutoff is the objective at and above which a node is pruned, by bound or by
// Options.RelGap, against the snapshot incumbent (+Inf without one). Fixing
// removes exactly the points at or above it: what the search prunes anyway.
func (st *search) cutoff(snap incumbent) float64 {
	if snap.x == nil {
		return math.Inf(1)
	}
	return snap.obj - max(1e-9, st.opts.RelGap*max(math.Abs(snap.obj), 1e-12))
}

var fixing = true // reduced-cost fixing; only tests turn it off

// fixRoot tightens the root box by the root LP's reduced costs against the
// live incumbent (see lp.Fix) and pushes each change into every worker's
// bounds. It moves only hi_j for d_j > 0 and lo_j for d_j < 0, so the bound
// each d_j measures from stays the root solve's own. Merge section only.
func (st *search) fixRoot() {
	if st.rootD == nil || st.inc.x == nil {
		return
	}
	gap := st.cutoff(st.inc) - st.objOffset - st.rootBound
	for j, d := range st.rootD {
		lo, hi := st.rootLo[j], st.rootHi[j]
		switch {
		case !st.redInteger[j]:
		case d > 0:
			hi = min(hi, lo+math.Floor(gap/d+1e-9))
		case d < 0:
			lo = max(lo, hi-math.Floor(gap/-d+1e-9))
		}
		if lo != st.rootLo[j] || hi != st.rootHi[j] {
			st.rootLo[j], st.rootHi[j] = lo, hi
			for _, sc := range st.scratches {
				sc.lo[j], sc.hi[j] = lo, hi
			}
		}
	}
}

// pickBranchVar selects the branching variable among fractional integer
// variables of the reduced-space point x, or returns -1 if the point is
// integer feasible. With no pseudocost history yet it picks the most
// fractional variable; once observations exist it maximizes the standard
// pseudocost product score max(pcDown·f, ε)·max(pcUp·(1−f), ε), sides
// without history falling back to the global average. The strict >
// comparison ties toward the lowest index, and the table is only mutated
// between rounds, so the choice is deterministic for every worker count.
func (st *search) pickBranchVar(x []float64) int {
	usePC := st.pc != nil && st.pc.gCnt > 0
	best := -1
	bestScore := math.Inf(-1)
	for j, isInt := range st.redInteger {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if math.Min(f, 1-f) <= st.opts.IntTol {
			continue // effectively integral
		}
		var score float64
		if usePC {
			const eps = 1e-6
			score = math.Max(st.pc.rate(j, false)*f, eps) * math.Max(st.pc.rate(j, true)*(1-f), eps)
		} else {
			score = -math.Abs(f - 0.5) // most-fractional branching
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// roundedCopy snaps near-integer values of integer variables exactly
// (reduced space).
func (st *search) roundedCopy(x []float64) []float64 {
	out := append([]float64(nil), x...)
	for j, isInt := range st.redInteger {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// tryRounding rounds the root relaxation point (reduced space), clamps it
// into the root box, and installs the postsolved point as incumbent if it is
// feasible for the full model.
func (st *search) tryRounding(x []float64) {
	cand := st.roundedCopy(x)
	for j := range cand {
		if cand[j] < st.rootLo[j] {
			cand[j] = st.rootLo[j]
		}
		if cand[j] > st.rootHi[j] {
			cand[j] = st.rootHi[j]
		}
	}
	full := st.pr.Postsolve(cand)
	if obj, ok := st.checkFeasible(full); ok {
		c := incumbent{x: full, obj: obj}
		if replaces(c, st.inc) {
			st.inc = c
		}
	}
}

// checkFeasible verifies a candidate point against all rows, indicator
// constraints, bounds, and integrality in the full model space; it returns
// the objective value.
func (st *search) checkFeasible(x []float64) (float64, bool) {
	const tol = 1e-6
	if len(x) != len(st.model.vars) {
		return 0, false
	}
	obj := 0.0
	for j, v := range st.model.vars {
		if x[j] < v.lo-tol || x[j] > v.hi+tol {
			return 0, false
		}
		if v.integer && math.Abs(x[j]-math.Round(x[j])) > tol {
			return 0, false
		}
		obj += v.obj * x[j]
	}
	for _, r := range st.model.rows {
		dot := 0.0
		for k, j := range r.idxs {
			dot += r.coefs[k] * x[j]
		}
		if dot < r.lo-tol || dot > r.hi+tol {
			return 0, false
		}
	}
	for _, ind := range st.model.indicators {
		if math.Round(x[ind.bin]) != 1 {
			continue
		}
		dot := 0.0
		for k, j := range ind.idxs {
			dot += ind.coefs[k] * x[j]
		}
		if ind.ge && dot < ind.rhs-tol {
			return 0, false
		}
		if !ind.ge && dot > ind.rhs+tol {
			return 0, false
		}
	}
	return obj, true
}
