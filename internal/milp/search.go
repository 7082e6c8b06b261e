package milp

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"spq/client"
	"spq/internal/lp"
)

// The branch-and-bound search is an explicit node pool rather than a
// recursive depth-first dive, and it runs on the calling goroutine. Each
// node carries one bound delta (the branching variable's new interval) plus
// a parent pointer, and its full bound vectors are materialized into the
// search's scratch space when its LP is solved. This keeps ancestry on the
// heap instead of one goroutine-stack frame per fixed binary.
//
// The LP kernel is engaged through four throughput levers (see DESIGN.md
// "LP kernel"):
//
//   - the model is presolved once at the root (lp.PresolveRows over the
//     model's rows, integer aware) and the whole search runs in the reduced
//     space; solutions are postsolved back before they become incumbents;
//   - every child node carries its parent's optimal basis and each node LP
//     is warm-started from it (dual-simplex reinstatement instead of
//     phase 1), with one lp.Scratch reused across node solves. A node's LP
//     prices its seed once, for reduced-cost fixing, the first dual ratio
//     test and the first phase-2 pricing alike, and both children of a
//     branching node are solved back to back, so the second reads the
//     first's pricing of their shared seed;
//   - the node loop allocates nothing: a node's LP solve lives in the
//     search's lp.Scratch, bases are snapshotted only at branching nodes into
//     buffers recycled through a free list, nodes come from slabs,
//     and the frontier is a stack that rounds pop from and push back onto;
//     and the set-up allocates only on a cold pool: the whole working set
//     of a Solve, presolve's included, is an arena taken from a pool and
//     returned before Solve does (see arena);
//   - branch variables are chosen by pseudocosts seeded from
//     most-fractional, learned from realized objective degradations.
//
// Incumbents come early from simple rounding (simpleRound): every node whose
// LP point is fractional, the root included, rounds each fractional integer
// column in a direction no row locks, and a rounded point that beats the
// cutoff and satisfies the rows is the node's candidate. There is no other
// rounding: the root is not rounded to nearest.
//
// Rounds: the search processes the frontier in rounds of at most roundSize
// nodes. Within a round every node's disposition (prune / branch / incumbent
// candidate) is a function of the node and the round-start incumbent
// snapshot, never the live incumbent, and the pseudocost table a node's
// pickBranchVar reads changes only between rounds, folded in frontier merge
// order. Candidates are merged back in frontier order, with objective ties
// broken toward the smaller canonical path id (down-branch = 0, up-branch =
// 1, compared lexicographically). A rounded candidate is a function of its
// node's LP point and box and the snapshot, so it merges like any integral
// node's. A node's warm-start basis is its parent's optimal basis. These
// rules define the answers, Result.Nodes included, bit for bit: pruning
// against the live incumbent instead would be another search (DESIGN.md,
// "The round search").

// roundSize is the number of frontier nodes evaluated per round. Round
// boundaries decide which incumbent snapshot a node is pruned against;
// smaller values tighten pruning (the snapshot lags the live incumbent by at
// most one round).
const roundSize = 64

// intTol is the integrality tolerance: a value within it of an integer
// counts as integral.
const intTol = 1e-6

// feasTol is how far a candidate point may miss a bound, a row side or
// integrality and still count as feasible (checkFeasible, simpleRound).
const feasTol = 1e-6

// nodeBasis is a branching node's optimal basis, the warm start of its
// children. refs counts the children not yet solved; when the merge section
// brings it to zero the buffer goes back to the scratch's free list.
type nodeBasis struct {
	lp.Basis
	refs int
}

// bbNode is one open branch-and-bound subproblem: the parent's bounds
// narrowed by [lo, hi] on branchVar. A round only reads nodes; the merge
// section between rounds is the only writer (it fills nodes in, releases
// seed once the node has been processed, counts open, and reuses a node
// whose subtree is retired).
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
// incumbents (InitialX, the guided neighbourhood search's point) and the
// root's rounded point use the empty path, so they win objective ties
// against any search-discovered point — the same "strict improvement only"
// rule the sequential dive applied to them.
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

// bbScratch is the search's reusable state: bound materialization buffers,
// the lp.Scratch in which every node solve lives, and the free list of basis
// buffers. It outlives a solve in the arena; reset re-initialises it for the
// next.
type bbScratch struct {
	lo, hi  []float64 // root bounds, overridden at touched by the previous node's path
	touched []int
	stamp   []int // stamp[j] == epoch ⟹ var j already overridden this node
	epoch   int
	lp      lp.Scratch
	// bases is popped by dispose during a round and refilled by the merge
	// section between rounds.
	bases []*nodeBasis
	// point is an integral node's rounded LP point, or simple rounding's
	// rounded point, and act the latter's row activities (reduced space),
	// grown by the first point that needs them.
	point, act []float64
}

// reset re-initialises the scratch for a search whose root box is lo, hi.
// The lp.Scratch and spare bases carry over.
func (sc *bbScratch) reset(lo, hi []float64) {
	n := len(lo)
	sc.lo, sc.hi = grow(sc.lo, n), grow(sc.hi, n)
	copy(sc.lo, lo)
	copy(sc.hi, hi)
	sc.stamp = grow(sc.stamp, n)
	clear(sc.stamp)
	sc.epoch = 0
	sc.touched = sc.touched[:0]
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
// after the next node solve reused the memory would change a result
// instead of passing by luck, and so is every buffer of an arena going back
// to the pool (NaN for floats, −1 for indices), so a Solve that read what a
// previous one left, instead of re-initialising it, would too. (A recycled
// basis needs no switch: Reset makes it unloadable, which the warm-start
// counters show.)
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
// and the up branch. It is read during rounds and mutated only between
// rounds, in frontier merge order.
type pseudocosts struct {
	downSum, upSum []float64
	downCnt, upCnt []int
	gSum           float64 // global fallback for sides with no history yet
	gCnt           int
}

// reset empties the table for n columns, in the buffers it had.
func (pc *pseudocosts) reset(n int) {
	*pc = pseudocosts{downSum: grow(pc.downSum, n), upSum: grow(pc.upSum, n),
		downCnt: grow(pc.downCnt, n), upCnt: grow(pc.upCnt, n)}
	clear(pc.downSum)
	clear(pc.upSum)
	clear(pc.downCnt)
	clear(pc.upCnt)
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
	done     bool             // false when a limit stopped the round before this node
	complete bool             // subtree fully resolved (pruned/feasible/infeasible/branched)
	kids     [2]bbNode        // kids[:nkids] are the open subproblems, in preferred exploration
	nkids    int              // order; the merge section copies them into nodes of its own
	cand     incumbent        // integer-feasible point found here (x nil if none)
	work     client.SolveWork // this node and its LP solve's work
	hasObs   bool             // a pseudocost observation was realized at this node
	obsVar   int
	obsUp    bool
	obsUnit  float64
	err      error
}

// nodeWork is the work of one node: its LP solve, and the node itself.
func nodeWork(sol *lp.Solution) client.SolveWork {
	w := client.SolveWork{Nodes: 1, LPIters: sol.Iters, DegenPivots: sol.DegenPivots, BoundFlips: sol.BoundFlips}
	if sol.WarmStarted {
		w.WarmStarts = 1
	}
	return w
}

// search carries the state of one Solve invocation. The incumbent, work
// record and pseudocost table are touched only between rounds; a round
// reports through its bbResult slots. It lives in an arena, and reset
// re-initialises it for each solve in the buffers of the previous one.
type search struct {
	model  *Model
	pr     *lp.Presolved
	red    *lp.Problem // presolved problem; all node LPs solve this
	opts   Options
	lpOpts lp.Options // carries the search's cancellation and deadline too

	rootLo, rootHi []float64 // reduced-space presolved bounds (Postsolve never reads them), tightened by fixRoot
	redInteger     []bool    // integrality mask in reduced space
	locks          []uint8   // lockDown|lockUp per reduced column (columnLocks)
	objOffset      float64   // reduced obj + objOffset = full obj
	rootD          []float64 // root LP reduced costs, captured once the root branches (empty before)
	rootBound      float64   // the root LP's Lagrangian bound under rootD

	guide      []float64 // an infeasible Options.InitialX (full space), nil otherwise
	guideNodes int       // nodes of the neighbourhood search it guided
	guideWon   bool      // that search supplied the incumbent

	inc     incumbent
	stop    Stop             // why run ended (StopComplete until a budget ends it)
	work    client.SolveWork // accumulated between rounds
	rounds  int
	pc      pseudocosts
	sc      bbScratch
	results []bbResult // one slot per node of the current round
	slab    []bbNode   // fresh nodes are appended here; a full slab is left to its nodes
	slabs   [][]bbNode // every slab made, reused in order: slabs[:nslab] are this solve's
	nslab   int
	free    *bbNode // retired nodes, linked through parent, reused before the slab grows
	sub     *search // the neighbourhood search's state (searchGuide), made on first use
}

// reset re-initialises st for a solve of model under opts, keeping the
// buffers of its previous solve: everything it returns to zero or re-fills
// before reading.
func (st *search) reset(model *Model, opts Options) {
	*st = search{
		model:      model,
		opts:       opts,
		inc:        incumbent{obj: math.Inf(1)},
		rootLo:     st.rootLo[:0],
		rootHi:     st.rootHi[:0],
		redInteger: st.redInteger[:0],
		locks:      st.locks[:0],
		rootD:      st.rootD[:0],
		pc:         st.pc,
		sc:         st.sc,
		results:    st.results,
		slabs:      st.slabs,
		sub:        st.sub,
	}
	clear(st.results)
}

// arena is a Solve's working set, taken from arenas for the solve and put
// back before Solve returns: the presolver with its row store and reduced
// problem, the relaxation's row form, and the search with its scratch,
// pseudocosts, node slabs and round results. Solves of one size
// after the first allocate only their answer; nothing a Result holds is the
// arena's.
type arena struct {
	pre  lp.Presolver
	form rowForm
	st   search
}

var arenas = sync.Pool{New: func() any { return new(arena) }}

// spare is the arena of the last Solve to finish, kept out of the pool: a
// sequence of solves, SummarySearch's, takes the same arena each time,
// whichever P its goroutine runs on, where sync.Pool's per-P slots would
// hand it an arena grown by other problems or a new one, and what the
// sequence allocates would change run to run. The arenas of concurrent
// solves go through the pool, which the collector empties.
var spare atomic.Pointer[arena]

// takeArena is the spare arena, else one from the pool.
func takeArena() *arena {
	if a := spare.Swap(nil); a != nil {
		return a
	}
	return arenas.Get().(*arena)
}

// release lets go of what the solve referenced that is not the arena's (the
// model, the options, the incumbents) and hands the arena on: as the spare
// when there is none, else to the pool.
func (a *arena) release() {
	if poisonRecycled {
		a.poison()
	}
	a.form.m = nil
	for st := &a.st; st != nil; st = st.sub {
		st.reset(nil, Options{})
	}
	if !spare.CompareAndSwap(nil, a) {
		arenas.Put(a)
	}
}

// poison overwrites what the solve used of the arena's buffers (see
// poisonRecycled); what lies past that, an earlier solve used and poison
// covered then.
func (a *arena) poison() {
	a.pre.Poison()
	nan := func(fs ...[]float64) {
		for _, f := range fs {
			for k := range f {
				f[k] = math.NaN()
			}
		}
	}
	neg := func(is ...[]int) {
		for _, ix := range is {
			for k := range ix {
				ix[k] = -1
			}
		}
	}
	nan(a.form.bigM)
	for st := &a.st; st != nil; st = st.sub {
		nan(st.rootLo, st.rootHi, st.rootD, st.pc.downSum, st.pc.upSum)
		neg(st.pc.downCnt, st.pc.upCnt)
		nan(st.sc.lo, st.sc.hi, st.sc.point, st.sc.act)
		neg(st.sc.stamp, st.sc.touched[:cap(st.sc.touched)])
		for k, slab := range st.slabs[:st.nslab] {
			if k == st.nslab-1 {
				slab = st.slab
			} else {
				slab = slab[:cap(slab)]
			}
			for i := range slab {
				n := &slab[i]
				n.branchVar, n.lo, n.hi, n.parentObj, n.frac = -1, math.NaN(), math.NaN(), math.NaN(), math.NaN()
			}
		}
	}
}

// Solve runs branch and bound on the model. Its working set is an arena
// from a pool, returned before Solve is; the Result is the caller's alone.
func Solve(m *Model, o *Options) (*Result, error) {
	a := takeArena()
	defer a.release()
	return a.solve(m, o)
}

func (a *arena) solve(m *Model, o *Options) (*Result, error) {
	opts := o.withDefaults()
	st := &a.st
	st.reset(m, opts)
	// Node LP solves inherit the caller's LP options plus the search's
	// cancellation channel and deadline, so aborts land mid-iteration. A
	// caller-supplied LP.Cancel/LP.Deadline is kept when the search adds
	// none of its own (the deadline merge keeps whichever is earlier).
	st.lpOpts = opts.LP
	st.lpOpts.Fix = lp.Fix{} // the search's own hook, set per node
	if opts.Cancel != nil {
		st.lpOpts.Cancel = opts.Cancel
	}
	if opts.TimeLimit > 0 {
		if dl := time.Now().Add(opts.TimeLimit); st.lpOpts.Deadline.IsZero() || dl.Before(st.lpOpts.Deadline) {
			st.lpOpts.Deadline = dl
		}
	}
	hint := HintNone
	if len(opts.InitialX) > 0 && len(opts.InitialX) == len(m.vars) {
		if obj, ok := st.checkFeasible(opts.InitialX); ok {
			st.inc = incumbent{x: opts.InitialX, obj: obj} // not copied: see Options.InitialX
			hint = HintIncumbent
		} else {
			st.guide = opts.InitialX
			hint = HintGuide
		}
	}

	// Root presolve: reduce once, search the reduced space. The reductions
	// are integrality-aware, so the reduced problem is an equivalent MILP
	// root and every node bound only tightens it further.
	start := time.Now()
	if err := m.relaxation(&a.form); err != nil {
		return nil, err
	}
	st.pr = a.pre.Rows(&a.form)
	res := &Result{
		SolveWork:    client.SolveWork{PresolveRows: st.pr.RowsRemoved, PresolveCols: st.pr.ColsRemoved},
		PresolveTime: time.Since(start),
		Coefficients: a.form.coefs,
		Hint:         hint,
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
	st.redInteger = grow(st.redInteger, nred)
	for j := 0; j < nred; j++ {
		st.redInteger[j] = m.vars[st.pr.Col(j)].integer
	}
	st.locks = columnLocks(st.locks, st.red)
	st.pc.reset(nred)
	st.sc.reset(st.rootLo, st.rootHi)

	rootOpts := st.lpOpts
	rootOpts.Scratch = &st.sc.lp
	rootSol, err := lp.SolveWithBounds(st.red, st.rootLo, st.rootHi, &rootOpts)
	if err != nil {
		return nil, err
	}
	st.work = res.SolveWork
	st.work.Add(nodeWork(rootSol))
	res.Bound = rootSol.Obj + st.objOffset
	// A solve that stops at the root's status below reports the root's LP
	// work, but no node or warm start.
	res.SolveWork = st.work
	res.Nodes, res.WarmStarts = 0, 0
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
		res.Stop = StopNodeCap
		if rootSol.Status == lp.StatusCancelled {
			res.Stop = st.interruption()
		}
		if st.inc.x != nil {
			res.Status, res.X, res.Obj = StatusFeasible, st.inc.x, st.inc.obj
			return res, nil
		}
		res.Status = StatusLimit
		return res, nil
	}
	complete, err := st.run(rootSol)
	if err != nil {
		return nil, err
	}
	res.SolveWork = st.work
	res.Stop = st.stop
	res.Rounds = st.rounds
	res.GuideNodes, res.GuideIncumbent = st.guideNodes, st.guideWon
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
	rootRes := st.dispose(nil, rootSol, st.inc)
	if replaces(rootRes.cand, st.inc) {
		st.inc = rootRes.cand
	}
	if rootRes.nkids > 0 && fixing {
		// The root solve is still live in the scratch.
		st.rootD = grow(st.rootD, st.red.NumVars())
		st.rootBound = st.sc.lp.ReducedCosts(st.rootD)
		st.fixRoot()
	}
	if rootRes.nkids > 0 && st.inc.x == nil && st.guide != nil {
		if err := st.searchGuide(rootSol.X, &rootRes.kids[0].seed.Basis); err != nil {
			return false, err
		}
	}
	releaseX(rootSol.X)
	complete := rootRes.complete
	// The frontier is a stack with its top at the end: a round pops the top
	// k nodes, and their children are pushed back so that the first node's
	// preferred child is the new top. Exploration stays depth-first-shaped
	// and the untouched part of the frontier is never copied.
	stack := st.pushKids(nil, &rootRes)

	for len(stack) > 0 {
		if st.interrupted() {
			st.stop = st.interruption()
			return false, nil
		}
		budget := st.opts.MaxNodes - st.work.Nodes
		if budget <= 0 {
			st.stop = StopNodeCap
			return false, nil
		}
		k := min(roundSize, len(stack), budget)
		round := stack[len(stack)-k:] // node i of the round is round[k-1-i]
		if cap(st.results) < k {
			st.results = make([]bbResult, min(2*k, roundSize))
		}
		results := st.results[:k]
		clear(results)
		// Every node of the round is judged against the round-start
		// incumbent. Siblings are adjacent in the round and share their
		// seed, so the second reads the first's pricing of it from the
		// scratch.
		snap := st.inc
		for i := range results {
			if st.interrupted() {
				break
			}
			results[i] = st.process(round[k-1-i], snap)
		}
		st.rounds++

		// Merge in round order. Pseudocost observations fold in here, in the
		// same order, so the table the next round reads is fixed before it
		// starts.
		cut := false
		for i := range results {
			r := &results[i]
			if r.err != nil {
				return false, r.err
			}
			if !r.done {
				cut = true // a limit stopped the round partway
				continue
			}
			st.work.Add(r.work)
			if r.hasObs {
				st.pc.observe(r.obsVar, r.obsUp, r.obsUnit)
			}
			// The node is resolved; release its warm-start snapshot (its
			// children carry their own), and recycle it after its sibling's.
			n := round[k-1-i]
			b := n.seed
			n.seed = nil
			if b.refs--; b.refs == 0 {
				b.Reset()
				st.sc.bases = append(st.sc.bases, b)
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
			st.stop = st.interruption()
			return false, nil
		}
		stack = stack[:len(stack)-k]
		for i := k - 1; i >= 0; i-- {
			stack = st.pushKids(stack, &results[i])
		}
	}
	if !complete {
		// A node LP cut short by an interruption left its subtree open.
		st.stop = st.interruption()
	}
	return complete, nil
}

// guideCap bounds the neighbourhood search of an infeasible Options.InitialX,
// its root included.
const guideCap = 1000

// searchGuide is the neighbourhood search of an infeasible Options.InitialX
// (RINS: Danna, Rothberg & Le Pape, Math. Prog. 2005). It fixes every integer
// column on which the root LP point x equals the rounded guide and runs the
// same branch-and-bound over that smaller box, from seed (the root's optimal
// basis), for at most guideCap nodes. Its best point becomes the incumbent
// with the empty path, like every seeded incumbent. It runs before the
// first round. It shares the presolved problem but has its own box, scratch
// and pseudocosts (st.sub, kept in the arena): the main search's scratch
// still holds the root.
func (st *search) searchGuide(x []float64, seed *lp.Basis) error {
	budget := min(guideCap, st.opts.MaxNodes-st.work.Nodes)
	if budget <= 0 {
		return nil
	}
	if st.sub == nil {
		st.sub = &search{}
	}
	nb := st.sub
	nb.reset(st.model, st.opts)
	nb.opts.MaxNodes = budget
	n := len(st.rootLo)
	lo, hi := grow(nb.rootLo, n), grow(nb.rootHi, n)
	copy(lo, st.rootLo)
	copy(hi, st.rootHi)
	fixed := 0
	for j, isInt := range st.redInteger {
		if !isInt {
			continue
		}
		if g := math.Round(st.guide[st.pr.Col(j)]); math.Abs(x[j]-g) <= intTol {
			lo[j], hi[j] = g, g
			fixed++
		}
	}
	nb.rootLo, nb.rootHi = lo, hi
	if fixed == 0 {
		return nil
	}
	nb.pr, nb.red, nb.lpOpts = st.pr, st.red, st.lpOpts
	nb.redInteger, nb.locks, nb.objOffset = st.redInteger, st.locks, st.objOffset
	nb.pc.reset(n)
	nb.sc.reset(lo, hi)
	opts := st.lpOpts
	opts.Basis = seed
	opts.Scratch = &nb.sc.lp
	sol, err := lp.SolveWithBounds(st.red, lo, hi, &opts)
	if err != nil {
		return err
	}
	nb.work = nodeWork(sol)
	if _, err := nb.run(sol); err != nil {
		return err
	}
	st.work.Add(nb.work)
	st.rounds += nb.rounds
	st.guideNodes = nb.work.Nodes
	if nb.inc.x != nil {
		st.inc = incumbent{x: nb.inc.x, obj: nb.inc.obj}
		st.guideWon = true
		st.fixRoot()
	}
	return nil
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
				st.nextSlab()
			}
			st.slab = st.slab[:len(st.slab)+1]
			n = &st.slab[len(st.slab)-1]
		}
		*n = r.kids[j]
		stack = append(stack, n)
	}
	return stack
}

// nextSlab makes the next slab current: the arena's next one, else a new
// one that grows the last (2, 6, 14 … 1024 nodes), which the arena keeps.
func (st *search) nextSlab() {
	if st.nslab == len(st.slabs) {
		st.slabs = append(st.slabs, make([]bbNode, 0, min(2*cap(st.slab)+2, 1024)))
	}
	st.slab = st.slabs[st.nslab][:0]
	st.nslab++
}

// process materializes a node's bounds, solves its LP relaxation warm-started
// from the parent basis, and returns its disposition relative to the
// incumbent snapshot.
func (st *search) process(n *bbNode, snap incumbent) bbResult {
	sc := &st.sc
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
				return bbResult{done: true, complete: true, work: client.SolveWork{Nodes: 1}}
			}
		}
	}
	opts := st.lpOpts
	opts.Basis = &n.seed.Basis
	opts.Scratch = &sc.lp
	if snap.x != nil && fixing {
		opts.Fix = lp.Fix{Integer: st.redInteger, Cutoff: st.cutoff(snap) - st.objOffset}
	}
	sol, err := lp.SolveWithBounds(st.red, sc.lo, sc.hi, &opts)
	if err != nil {
		return bbResult{done: true, err: err}
	}
	// sol lives in sc.lp until the next solve; dispose copies what the
	// result keeps.
	out := st.dispose(n, sol, snap)
	out.work = nodeWork(sol)
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
// and between-round state (never the live incumbent). The scratch holds the
// node's bounds and, still live, the basis the children are seeded from.
func (st *search) dispose(n *bbNode, sol *lp.Solution, snap incumbent) bbResult {
	sc := &st.sc
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
			cand: incumbent{x: st.pr.Postsolve(st.rounded(sol.X)), obj: adjObj, path: pathOf(n)}}
	}
	out := bbResult{done: true, complete: true}
	if rounding {
		out.cand = st.simpleRound(n, sol.X, snap)
	}
	val := sol.X[bv]
	floorV := math.Floor(val)
	depth := int32(1)
	if n != nil {
		depth = n.depth + 1
	}
	frac := val - floorV
	down := bbNode{parent: n, branchVar: bv, lo: sc.lo[bv], hi: floorV, digit: 0, depth: depth,
		parentObj: sol.Obj, frac: frac}
	up := bbNode{parent: n, branchVar: bv, lo: floorV + 1, hi: sc.hi[bv], digit: 1, depth: depth,
		parentObj: sol.Obj, frac: frac}
	// Explore the side nearer the LP value first.
	first, second := down, up
	if frac > 0.5 {
		first, second = up, down
	}
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
// cancelled.
func (st *search) interrupted() bool { return st.interruption() != StopComplete }

// interruption names what has interrupted the search: StopCancelled once the
// cancellation channel its LPs poll is closed, StopTimeCap once their
// deadline (the search's own or an earlier Options.LP.Deadline) has passed,
// and StopComplete while neither has happened.
func (st *search) interruption() Stop {
	if c := st.lpOpts.Cancel; c != nil {
		select {
		case <-c:
			return StopCancelled
		default:
		}
	}
	if dl := st.lpOpts.Deadline; !dl.IsZero() && time.Now().After(dl) {
		return StopTimeCap
	}
	return StopComplete
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

var rounding = true // simple rounding of fractional nodes; only tests turn it off

// fixRoot tightens the root box by the root LP's reduced costs against the
// live incumbent (see lp.Fix) and pushes each change into the scratch's
// bounds. It moves only hi_j for d_j > 0 and lo_j for d_j < 0, so the bound
// each d_j measures from stays the root solve's own. Merge section only.
func (st *search) fixRoot() {
	if len(st.rootD) == 0 || st.inc.x == nil {
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
			st.sc.lo[j], st.sc.hi[j] = lo, hi
		}
	}
}

// pickBranchVar selects the branching variable among fractional integer
// variables of the reduced-space point x, or returns -1 if the point is
// integer feasible. With no pseudocost history yet it picks the most
// fractional variable; once observations exist it maximizes the standard
// pseudocost product score max(pcDown·f, ε)·max(pcUp·(1−f), ε), sides
// without history falling back to the global average. The strict >
// comparison ties toward the lowest index.
func (st *search) pickBranchVar(x []float64) int {
	usePC := st.pc.gCnt > 0
	best := -1
	bestScore := math.Inf(-1)
	for j, isInt := range st.redInteger {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if f <= intTol || 1-f <= intTol {
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

// rounded is x with near-integer values of integer variables snapped
// exactly (reduced space), in the scratch's point buffer.
func (st *search) rounded(x []float64) []float64 {
	sc := &st.sc
	sc.point = grow(sc.point, len(x))
	copy(sc.point, x)
	for j, isInt := range st.redInteger {
		if isInt {
			sc.point[j] = math.Round(sc.point[j])
		}
	}
	return sc.point
}

// Lock flags of a reduced column (Achterberg, "Constraint Integer
// Programming", 2007, §9.1): a row locks the column down when lowering the
// column can violate it, and up when raising it can.
const (
	lockDown uint8 = 1 << iota
	lockUp
)

// columnLocks computes every column's lock flags from the presolved
// problem's rows, the linearized indicator rows among them, into dst's
// buffer. A row with a finite upper side locks its positive entries up and
// its negative ones down; a finite lower side does the reverse.
func columnLocks(dst []uint8, p *lp.Problem) []uint8 {
	locks := grow(dst, p.NumVars())
	clear(locks)
	for j := range locks {
		_, rows, coefs := p.Column(j)
		for k, i := range rows {
			lo, hi := p.RowBounds(int(i))
			if coefs[k] < 0 {
				lo, hi = -hi, -lo
			}
			if !math.IsInf(lo, -1) {
				locks[j] |= lockDown
			}
			if !math.IsInf(hi, 1) {
				locks[j] |= lockUp
			}
		}
	}
	return locks
}

// simpleRound is simple rounding (Achterberg, §9.1.1) of a node's fractional
// LP point x: every fractional integer column moves to the neighbouring
// integer in a direction no row locks, so every row the LP point satisfies
// stays satisfied. It gives up at the first column locked both ways, or
// whose rounded value leaves the node's box. A rounded point priced below
// the snapshot's cutoff is checked against the reduced rows and, when they
// hold, returned postsolved as the node's candidate, with the node's path.
// It reads only x, the node's box and snap; it allocates only the
// candidate's postsolved point.
func (st *search) simpleRound(n *bbNode, x []float64, snap incumbent) incumbent {
	sc := &st.sc
	obj := st.objOffset
	for j, v := range x {
		r, ok := st.roundCol(j, v)
		if !ok {
			return incumbent{}
		}
		c, _, _ := st.red.Column(j)
		obj += c * r
	}
	if obj >= st.cutoff(snap) {
		return incumbent{}
	}
	sc.point, sc.act = grow(sc.point, len(x)), grow(sc.act, st.red.NumRows())
	clear(sc.act)
	for j, v := range x {
		r, _ := st.roundCol(j, v)
		sc.point[j] = r
		_, rows, coefs := st.red.Column(j)
		for k, i := range rows {
			sc.act[i] += coefs[k] * r
		}
	}
	for i, a := range sc.act {
		if lo, hi := st.red.RowBounds(i); a < lo-feasTol || a > hi+feasTol {
			return incumbent{}
		}
	}
	return incumbent{x: st.pr.Postsolve(sc.point), obj: obj, path: pathOf(n)}
}

// roundCol is column j's value v rounded by simpleRound: kept when the
// column is continuous, snapped when within intTol of an integer, else
// rounded down unless a row locks it down, else up unless a row locks it
// up. ok is false when both locks hold or the value leaves the node's box.
func (st *search) roundCol(j int, v float64) (r float64, ok bool) {
	if !st.redInteger[j] {
		return v, true
	}
	r = math.Floor(v)
	switch f := v - r; {
	case f <= intTol:
	case 1-f <= intTol:
		r++
	case st.locks[j]&lockDown == 0:
	case st.locks[j]&lockUp == 0:
		r++
	default:
		return 0, false
	}
	return r, r >= st.sc.lo[j] && r <= st.sc.hi[j]
}

// checkFeasible verifies a candidate point against all rows, indicator
// constraints, bounds, and integrality in the full model space; it returns
// the objective value.
func (st *search) checkFeasible(x []float64) (float64, bool) {
	if len(x) != len(st.model.vars) {
		return 0, false
	}
	obj := 0.0
	for j, v := range st.model.vars {
		if lo, hi := v.box(); x[j] < lo-feasTol || x[j] > hi+feasTol {
			return 0, false
		}
		if v.integer && math.Abs(x[j]-math.Round(x[j])) > feasTol {
			return 0, false
		}
		obj += v.obj * x[j]
	}
	for _, r := range st.model.rows {
		if dot := dotTerms(r.idxs, r.coefs, x); dot < r.lo-feasTol || dot > r.hi+feasTol {
			return 0, false
		}
	}
	for _, ind := range st.model.indicators {
		if math.Round(x[ind.bin]) != 1 {
			continue
		}
		dot := dotTerms(ind.idxs, ind.coefs, x)
		if ind.ge && dot < ind.rhs-feasTol {
			return 0, false
		}
		if !ind.ge && dot > ind.rhs+feasTol {
			return 0, false
		}
	}
	return obj, true
}

// dotTerms is Σ coefs·x over a row's nonzero terms (idxs as in rowSpec).
func dotTerms(idxs []int, coefs, x []float64) float64 {
	dot := 0.0
	for k, c := range coefs {
		if c != 0 {
			dot += c * x[col(idxs, k)]
		}
	}
	return dot
}
