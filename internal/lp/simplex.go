package lp

import (
	"errors"
	"math"
	"time"
)

// variable status codes. Structural variables are 0..n-1, logical (row)
// variables are n..n+m-1.
const (
	statusAtLower = iota
	statusAtUpper
	statusFree
	statusBasic
)

const (
	pivotTol      = 1e-9 // minimum |pivot element|
	feasTol       = 1e-7 // bound-violation tolerance
	optTol        = 1e-9 // reduced-cost optimality tolerance
	refactorEvery = 100  // pivots between basis refactorizations
)

// Scratch is everything a solve allocates: the solver state itself (basis
// inverse rows, eta file, pricing and ratio-test vectors, refactorization
// workspace) and the returned Solution with its X and, under WantBasis, its
// Basis. A zero Scratch is ready to use; buffers grow to the largest problem
// seen and are retained across solves, so a solve on a warm Scratch
// allocates nothing. The Solution a solve returns points into the Scratch
// and is overwritten by the Scratch's next solve. Not safe for concurrent
// solves — callers that solve in parallel (the MILP branch-and-bound) keep
// one per worker.
//
// A Scratch also remembers the last seed basis it priced: sim.d holds that
// seed's raw reduced costs. A later solve that loads the same seed — the
// sibling of a branch-and-bound node, solved next on the same worker —
// refactorizes the same basis order into the same inverse, so it reads them
// instead of pricing again and gets the same bits.
type Scratch struct {
	sim    simplex
	sol    Solution
	x      []float64
	snap   Basis
	priced seedKey
}

// seedKey names a seed basis under one objective. The pointers keep both
// alive, so neither address is reused while the key stands; the counts
// change with every SetObj on the Problem and every rewrite of the Basis.
type seedKey struct {
	p    *Problem
	pgen uint64
	b    *Basis
	bgen uint64
}

// grow returns buf resized to n elements, reallocating only when its
// capacity falls short. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// simplex is the working state of one solve. The basis inverse is kept in
// product form: a dense refactorized inverse binv (of the basis at the last
// refactorization) composed with a file of sparse eta transforms, one per
// pivot since. ftran/btran apply the dense part and then stream the etas, so
// a pivot costs O(nnz(eta)) instead of the O(m²) dense rank-1 update, with
// the periodic dense refactorization as the conditioning fallback.
type simplex struct {
	p    *Problem
	opts Options

	n, m  int // structural vars, rows
	total int // n + m

	lo, hi []float64 // bounds for all vars (structural then logical)
	status []byte    // statusAtLower / statusAtUpper / statusFree / statusBasic

	basis []int     // basis[k] = variable basic in position k
	pos   []int32   // pos[j] = basis position of var j, or -1
	binv  []float64 // dense refactorized basis inverse, m×m by rows
	xb    []float64 // values of basic variables

	cost []float64 // current phase cost for all vars
	y    []float64 // duals c_Bᵀ·B⁻¹
	w    []float64 // ftran scratch; computeXB's right-hand side
	rho  []float64 // dual-simplex pivot row e_rᵀ·B⁻¹
	cb   []float64 // btran input scratch
	d    []float64 // raw reduced costs of every column (price)

	// Eta file: pivot k replaced basis position etaR[k] with a column whose
	// ftran image was w; the eta stores w's pivot entry (etaWr) and its
	// off-pivot nonzeros (etaIdx/etaVal in [etaOff[k], etaOff[k+1])).
	etaR   []int
	etaOff []int
	etaWr  []float64
	etaVal []float64
	etaIdx []int32

	refacBack []float64
	refacRows [][]float64

	iters       int
	sincePivot  int // pivots since last refactorization (= live eta count)
	degenerate  int // consecutive degenerate iterations (for Bland's rule)
	degenTotal  int // total degenerate pivots this solve
	boundFlips  int // dual iterations resolved by a bound flip (no eta)
	blandActive bool

	// dFresh: d holds the raw reduced costs of the current basis under the
	// true objective, so readers look them up instead of pricing. Set when a
	// loaded seed is priced (or its pricing reused); the first pivot clears
	// it, a bound flip does not (it leaves the basis, hence y, unchanged).
	dFresh bool
	// objCost: cost holds the true objective (structural) and zeros
	// (logical); phase 1 overwrites it.
	objCost bool

	hasDL bool     // opts.Deadline is set
	sc    *Scratch // the Scratch this state lives in
}

// newSimplex re-initialises the solver state inside the Scratch the options
// lend — or inside a fresh one, which the returned Solution then keeps alive —
// so lent and unlent solves run the same code. Counters restart from zero;
// the buffers of the Scratch's previous solve carry over.
func newSimplex(p *Problem, varLo, varHi []float64, o *Options) *simplex {
	n, m := p.nvars, len(p.rowLo)
	opts := o.withDefaults(m, n)
	sc := opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	s := &sc.sim
	if cap(s.d) < n+m {
		sc.priced = seedKey{} // grow below drops the priced d
	}
	*s = simplex{
		p:         p,
		opts:      opts,
		n:         n,
		m:         m,
		total:     n + m,
		lo:        grow(s.lo, n+m),
		hi:        grow(s.hi, n+m),
		status:    grow(s.status, n+m),
		basis:     grow(s.basis, m),
		pos:       grow(s.pos, n+m),
		binv:      grow(s.binv, m*m),
		xb:        grow(s.xb, m),
		cost:      grow(s.cost, n+m),
		y:         grow(s.y, m),
		w:         grow(s.w, m),
		rho:       grow(s.rho, m),
		cb:        grow(s.cb, m),
		d:         grow(s.d, n+m),
		etaR:      s.etaR[:0],
		etaOff:    append(s.etaOff[:0], 0),
		etaWr:     s.etaWr[:0],
		etaVal:    s.etaVal[:0],
		etaIdx:    s.etaIdx[:0],
		refacBack: grow(s.refacBack, 2*m*m),
		refacRows: grow(s.refacRows, m),
		hasDL:     !opts.Deadline.IsZero(),
		sc:        sc,
	}
	for i := 0; i < m; i++ {
		s.refacRows[i] = s.refacBack[2*m*i : 2*m*(i+1)]
	}
	copy(s.lo, varLo)
	copy(s.hi, varHi)
	for i := 0; i < m; i++ {
		s.lo[n+i] = p.rowLo[i]
		s.hi[n+i] = p.rowHi[i]
	}
	// Basis installation is deferred to solve(): the cold path builds the
	// logical basis, the warm path goes straight to loadBasis — skipping a
	// redundant basis-inverse init and computeXB pass per warm solve.
	return s
}

// resetToLogicalBasis installs the all-logical starting basis: B = −I, so
// the inverse is −I and the eta file is empty.
func (s *simplex) resetToLogicalBasis() {
	for j := 0; j < s.total; j++ {
		s.pos[j] = -1
		s.status[j] = s.initialStatus(j)
	}
	for i := 0; i < s.m; i++ {
		s.basis[i] = s.n + i
		s.pos[s.n+i] = int32(i)
		s.status[s.n+i] = statusBasic
		row := s.binv[i*s.m : (i+1)*s.m]
		clear(row)
		row[i] = -1 // logical columns have coefficient -1
	}
	s.clearEtas()
	s.sincePivot = 0
	s.degenerate = 0
	s.blandActive = false
	s.dFresh = false
	s.computeXB()
}

func (s *simplex) clearEtas() {
	s.etaR = s.etaR[:0]
	s.etaWr = s.etaWr[:0]
	s.etaVal = s.etaVal[:0]
	s.etaIdx = s.etaIdx[:0]
	s.etaOff = s.etaOff[:1] // keep the leading 0
}

func (s *simplex) initialStatus(j int) byte {
	switch {
	case !math.IsInf(s.lo[j], -1):
		return statusAtLower
	case !math.IsInf(s.hi[j], 1):
		return statusAtUpper
	default:
		return statusFree
	}
}

// nbVal returns the value of a nonbasic variable.
func (s *simplex) nbVal(j int) float64 {
	switch s.status[j] {
	case statusAtLower:
		return s.lo[j]
	case statusAtUpper:
		return s.hi[j]
	default:
		return 0
	}
}

// column iterates the sparse column of variable j (logical columns are a
// single -1 entry).
func (s *simplex) column(j int, fn func(row int, coef float64)) {
	if p := s.p; j < s.n {
		for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
			fn(int(p.rowIdx[t]), p.coef[t])
		}
		return
	}
	fn(j-s.n, -1)
}

// appendEta records the pivot at basis position r whose entering column had
// ftran image s.w: B_new = B_old·E where E is the identity with column r
// replaced by w. Only w's nonzero off-pivot entries are stored.
func (s *simplex) appendEta(r int) {
	s.etaR = append(s.etaR, r)
	s.etaWr = append(s.etaWr, s.w[r])
	for i := 0; i < s.m; i++ {
		if i == r || s.w[i] == 0 {
			continue
		}
		s.etaIdx = append(s.etaIdx, int32(i))
		s.etaVal = append(s.etaVal, s.w[i])
	}
	s.etaOff = append(s.etaOff, len(s.etaIdx))
	s.sincePivot++
	s.dFresh = false
}

// applyEtasFtran applies the eta inverses oldest→newest to v in place:
// v ← E_k⁻¹···E_1⁻¹·v, completing B⁻¹ = (etas)∘binv.
func (s *simplex) applyEtasFtran(v []float64) {
	for k := 0; k < len(s.etaR); k++ {
		r := s.etaR[k]
		zr := v[r] / s.etaWr[k]
		if zr != 0 {
			for t := s.etaOff[k]; t < s.etaOff[k+1]; t++ {
				v[s.etaIdx[t]] -= s.etaVal[t] * zr
			}
		}
		v[r] = zr
	}
}

// applyEtasBtran applies the transposed eta inverses newest→oldest to v in
// place: vᵀ ← vᵀE_k⁻¹···, the row-vector counterpart of applyEtasFtran.
func (s *simplex) applyEtasBtran(v []float64) {
	for k := len(s.etaR) - 1; k >= 0; k-- {
		r := s.etaR[k]
		acc := v[r]
		for t := s.etaOff[k]; t < s.etaOff[k+1]; t++ {
			acc -= s.etaVal[t] * v[s.etaIdx[t]]
		}
		v[r] = acc / s.etaWr[k]
	}
}

// denseBtran computes out = vᵀ·binv for the refactorized dense part,
// skipping zero entries of v (v is typically sparse: phase-1 costs touch
// only infeasible rows, the dual pivot row is a transformed unit vector).
func (s *simplex) denseBtran(v, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for k := 0; k < s.m; k++ {
		c := v[k]
		if c == 0 {
			continue
		}
		row := s.binv[k*s.m : (k+1)*s.m]
		for i := 0; i < s.m; i++ {
			out[i] += c * row[i]
		}
	}
}

// computeXB recomputes basic variable values from scratch: x_B = −B⁻¹·N x_N.
func (s *simplex) computeXB() {
	v := s.w
	clear(v)
	for j := 0; j < s.total; j++ {
		if s.status[j] == statusBasic {
			continue
		}
		val := s.nbVal(j)
		if val == 0 {
			continue
		}
		s.column(j, func(row int, coef float64) {
			v[row] += coef * val
		})
	}
	for k := 0; k < s.m; k++ {
		sum := 0.0
		row := s.binv[k*s.m : (k+1)*s.m]
		for i := 0; i < s.m; i++ {
			sum += row[i] * v[i]
		}
		s.xb[k] = sum
	}
	s.applyEtasFtran(s.xb)
	for k := range s.xb {
		s.xb[k] = -s.xb[k]
	}
}

// ftran computes w = B⁻¹·A_j for variable j: sparse column against the dense
// refactorized inverse, then the eta file.
func (s *simplex) ftran(j int) {
	for k := range s.w {
		s.w[k] = 0
	}
	s.column(j, func(row int, coef float64) {
		for k := 0; k < s.m; k++ {
			s.w[k] += coef * s.binv[k*s.m+row]
		}
	})
	s.applyEtasFtran(s.w)
}

// btran computes duals y = c_Bᵀ·B⁻¹ for the current phase costs: eta file
// first (newest→oldest), then the dense part.
func (s *simplex) btran() {
	for k := 0; k < s.m; k++ {
		s.cb[k] = s.cost[s.basis[k]]
	}
	s.applyEtasBtran(s.cb)
	s.denseBtran(s.cb, s.y)
}

// btranRow computes rho = e_rᵀ·B⁻¹, the dual-simplex pivot row.
func (s *simplex) btranRow(r int) {
	for k := range s.cb {
		s.cb[k] = 0
	}
	s.cb[r] = 1
	s.applyEtasBtran(s.cb)
	s.denseBtran(s.cb, s.rho)
}

// reducedCost returns d_j = c_j − yᵀA_j for nonbasic j.
func (s *simplex) reducedCost(j int) float64 {
	d := s.cost[j]
	if j >= s.n {
		return d + s.y[j-s.n]
	}
	p := s.p
	for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
		d -= s.y[p.rowIdx[t]] * p.coef[t]
	}
	return d
}

// rowCoef returns rhoᵀ·A_j, the pivot-row coefficient of variable j.
func (s *simplex) rowCoef(j int) float64 {
	if j >= s.n {
		return -s.rho[j-s.n]
	}
	a := 0.0
	p := s.p
	for t := p.colStart[j]; t < p.colStart[j+1]; t++ {
		a += s.rho[p.rowIdx[t]] * p.coef[t]
	}
	return a
}

// rc returns the reduced cost of nonbasic column j under the current
// phase's costs: looked up while d is fresh, priced otherwise.
func (s *simplex) rc(j int) float64 {
	if s.dFresh {
		return s.d[j]
	}
	return s.reducedCost(j)
}

// setObjCost loads the true objective into cost, once per phase change.
func (s *simplex) setObjCost() {
	if !s.objCost {
		copy(s.cost, s.p.obj)
		clear(s.cost[s.n:])
		s.objCost = true
	}
}

// price prices every column against the current basis's duals under the
// true objective. d gets the raw reduced costs, basic columns and those
// inside optTol included, so that the ratio test and phase 2 can read them
// as they would price them; dualBound, fixing and ReducedCosts treat those
// as zero.
func (s *simplex) price() {
	s.setObjCost()
	s.btran()
	for j := 0; j < s.total; j++ {
		s.d[j] = s.reducedCost(j)
	}
	s.dFresh = true
}

// dualBound returns the Lagrangian bound Σ_j min(d_j·lo_j, d_j·hi_j) under
// the reduced costs price left, basic columns and those inside optTol
// counting as d_j = 0: cᵀx = Σ_j d_j·x_j on the rows, so no row-feasible
// point of the box is below it. A nonzero d_j toward an infinite bound makes
// it −Inf.
func (s *simplex) dualBound() float64 {
	bound := 0.0
	for j, d := range s.d[:s.total] {
		switch {
		case s.status[j] == statusBasic || math.Abs(d) <= optTol:
		case d > 0:
			bound += d * s.lo[j]
		default:
			bound += d * s.hi[j]
		}
	}
	return bound
}

// fixByReducedCost applies Options.Fix to the freshly loaded seed basis (see
// Fix), pricing it unless this Scratch priced the same seed last. Only the
// bound a nonbasic column does not sit at moves, so the x_B computed after it
// is the one computed before. It reports false when the box holds no point
// below the cutoff.
func (s *simplex) fixByReducedCost() bool {
	if !s.dFresh {
		s.price()
		s.sc.priced = s.seed()
	}
	gap := s.opts.Fix.Cutoff - s.dualBound()
	if gap < 0 {
		return false
	}
	for j, isInt := range s.opts.Fix.Integer {
		switch d := s.d[j]; {
		case !isInt:
		case d > optTol && s.status[j] == statusAtLower:
			s.hi[j] = min(s.hi[j], s.lo[j]+math.Floor(gap/d+1e-9))
		case d < -optTol && s.status[j] == statusAtUpper:
			s.lo[j] = max(s.lo[j], s.hi[j]-math.Floor(gap/-d+1e-9))
		}
	}
	return true
}

// seed is the key of the solve's seed basis (Options.Basis, non-nil).
func (s *simplex) seed() seedKey {
	b := s.opts.Basis
	return seedKey{p: s.p, pgen: s.p.gen, b: b, bgen: b.gen}
}

// refactorize rebuilds the basis inverse (invert) and recomputes x_B from
// it.
func (s *simplex) refactorize() error {
	if err := s.invert(); err != nil {
		return err
	}
	s.computeXB()
	return nil
}

// invert rebuilds the dense basis inverse from the basis columns by
// Gauss-Jordan elimination with partial pivoting and empties the eta file.
// It reads only the basis order and the matrix, so the same basis always
// gets the same bits. On failure (singular basis) the current inverse and
// eta file are left untouched.
func (s *simplex) invert() error {
	m := s.m
	b := s.refacRows
	for i := 0; i < m; i++ {
		row := b[i]
		for t := range row {
			row[t] = 0
		}
		row[m+i] = 1
	}
	for k := 0; k < m; k++ {
		s.column(s.basis[k], func(row int, coef float64) {
			b[row][k] += coef
		})
	}
	for col := 0; col < m; col++ {
		piv, pv := -1, 0.0
		for r := col; r < m; r++ {
			if a := math.Abs(b[r][col]); a > pv {
				piv, pv = r, a
			}
		}
		if pv < pivotTol {
			return errors.New("lp: singular basis during refactorization")
		}
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / b[col][col]
		for c := 0; c < 2*m; c++ {
			b[col][c] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := b[r][col]
			if f == 0 {
				continue
			}
			for c := 0; c < 2*m; c++ {
				b[r][c] -= f * b[col][c]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i*m:(i+1)*m], b[i][m:])
	}
	s.clearEtas()
	s.sincePivot = 0
	return nil
}

// interrupted reports whether the solve should stop with StatusCancelled.
// It is called once per iteration in both phases: a non-blocking channel poll
// plus (only when a deadline is set) one time.Now are negligible next to an
// iteration's pricing pass, and keep cancellation latency at one iteration
// rather than one solve.
func (s *simplex) interrupted() bool {
	if s.opts.Cancel != nil {
		select {
		case <-s.opts.Cancel:
			return true
		default:
		}
	}
	return s.hasDL && time.Now().After(s.opts.Deadline)
}

// infeasibility classification of a basic value.
const (
	feaOK = iota
	feaBelow
	feaAbove
)

func (s *simplex) basicFeasibility(k int) int {
	j := s.basis[k]
	if s.xb[k] < s.lo[j]-feasTol {
		return feaBelow
	}
	if s.xb[k] > s.hi[j]+feasTol {
		return feaAbove
	}
	return feaOK
}

func (s *simplex) totalInfeasibility() float64 {
	sum := 0.0
	for k := 0; k < s.m; k++ {
		j := s.basis[k]
		if s.xb[k] < s.lo[j] {
			sum += s.lo[j] - s.xb[k]
		} else if s.xb[k] > s.hi[j] {
			sum += s.xb[k] - s.hi[j]
		}
	}
	return sum
}

// solve reaches a feasible basis — by dual-simplex reinstatement of a
// warm-start basis when Options.Basis is usable, by phase 1 otherwise —
// then runs phase 2 and extracts the solution.
func (s *simplex) solve() (*Solution, error) {
	st := StatusOptimal
	warmed := false
	switch {
	case s.opts.Basis == nil || !s.loadBasis(s.opts.Basis):
		// loadBasis leaves the solver in an undefined state on failure.
		s.resetToLogicalBasis()
	default:
		warmed = true
		// The seed this Scratch priced last is still priced (see Scratch).
		s.dFresh = s.sc.priced == s.seed()
		if s.opts.Fix.Integer != nil && !s.fixByReducedCost() {
			// Settled before x_B is computed: X reads zero, as for crossed
			// bounds.
			return s.finish(StatusInfeasible, warmed, false), nil
		}
		s.computeXB()
		dst, fallback := s.dualReinstate()
		if fallback {
			// Dual reinstatement could not finish (stall, or no entering
			// candidate — which may mean infeasibility, but tolerances make
			// that call unsafe here); restart cold and let phase 1 decide.
			s.resetToLogicalBasis()
			warmed = false
		} else {
			st = dst
		}
	}
	var err error
	if !warmed {
		st, err = s.phase1()
		if err != nil {
			return nil, err
		}
	}
	if st == StatusOptimal {
		st, err = s.phase2()
		if err != nil {
			return nil, err
		}
	}
	return s.finish(st, warmed, true), nil
}

// finish fills the Scratch's Solution. With haveX it extracts X and cᵀX in
// one ascending pass (basic columns from x_B, nonbasic ones at their bound);
// without, X is all zero.
func (s *simplex) finish(st Status, warmed, haveX bool) *Solution {
	s.sc.x = grow(s.sc.x, s.n)
	x := s.sc.x
	obj := 0.0
	if !haveX {
		clear(x)
	} else {
		for j := range x {
			v := s.nbVal(j)
			if s.status[j] == statusBasic {
				v = s.xb[s.pos[j]]
			}
			x[j] = v
			obj += s.p.obj[j] * v
		}
	}
	sol := &s.sc.sol
	*sol = Solution{
		Status:      st,
		X:           x,
		Obj:         obj,
		Iters:       s.iters,
		DegenPivots: s.degenTotal,
		BoundFlips:  s.boundFlips,
		WarmStarted: warmed,
	}
	if s.opts.WantBasis && st == StatusOptimal {
		sol.Basis = &s.sc.snap
		s.sc.SnapshotBasis(sol.Basis)
	}
	return sol
}

// dualReinstate restores primal feasibility from a warm-started basis with a
// bounded-variable dual simplex: the basis is primal-infeasible only in the
// few rows the changed bounds touched, and each dual pivot drives one
// violated basic to its bound while preserving dual feasibility (the parent
// optimum's reduced-cost signs). When no admissible entering column exists
// the violated row is an infeasibility certificate — every nonbasic sits at
// the bound that already maximizes (resp. minimizes) the row value, so no
// feasible point exists — and the violation is large enough to trust it,
// StatusInfeasible is returned directly (this is the common fate of
// branch-and-bound children and skipping the phase-1 re-proof is a large
// win). It returns fallback=true when it cannot decide — a certificate too
// close to tolerance, a numerically unusable pivot, or a degeneracy stall —
// in which case the caller must reset the basis and run phase 1.
func (s *simplex) dualReinstate() (st Status, fallback bool) {
	s.setObjCost()
	stall := 0
	for {
		if s.iters >= s.opts.MaxIters {
			return StatusIterLimit, false
		}
		if s.interrupted() {
			return StatusCancelled, false
		}
		// Leaving row: the largest bound violation.
		r, below, viol := -1, false, feasTol
		for k := 0; k < s.m; k++ {
			j := s.basis[k]
			if d := s.lo[j] - s.xb[k]; d > viol {
				r, below, viol = k, true, d
			}
			if d := s.xb[k] - s.hi[j]; d > viol {
				r, below, viol = k, false, d
			}
		}
		if r < 0 {
			return StatusOptimal, false // primal feasible: hand over to phase 2
		}
		if !s.dFresh {
			s.btran()
		}
		s.btranRow(r)
		enter := s.dualRatioTest(below)
		// Bound-flip fast path: when the cheapest entering candidate is a
		// boxed variable whose full lower↔upper traversal leaves row r still
		// violated on the same side, the eventual dual step must be long
		// enough to carry that variable past its ratio-test breakpoint — its
		// reduced cost would end up with the admissible sign for the opposite
		// bound anyway. Flipping it there now is a complete dual iteration
		// with no basis change: no eta append, no refactor pressure, just an
		// FTRAN to shift x_B by the traversed span. The flipped variable
		// self-excludes from the re-run ratio test (its admissibility sign
		// inverts with its status), so each nonbasic flips at most once per
		// row and the loop terminates.
		leave := s.basis[r]
		for enter >= 0 {
			span := s.hi[enter] - s.lo[enter]
			if s.status[enter] == statusFree || math.IsInf(span, 1) || span < feasTol {
				break
			}
			amt := span
			if s.status[enter] == statusAtUpper {
				amt = -span
			}
			after := s.xb[r] - s.rowCoef(enter)*amt
			still := after < s.lo[leave]-feasTol
			if !below {
				still = after > s.hi[leave]+feasTol
			}
			if !still {
				break
			}
			s.ftran(enter)
			for k := 0; k < s.m; k++ {
				s.xb[k] -= s.w[k] * amt
			}
			if s.status[enter] == statusAtLower {
				s.status[enter] = statusAtUpper
			} else {
				s.status[enter] = statusAtLower
			}
			s.boundFlips++
			s.iters++
			if s.iters >= s.opts.MaxIters {
				return StatusIterLimit, false
			}
			if s.interrupted() {
				return StatusCancelled, false
			}
			if below {
				viol = s.lo[leave] - s.xb[r]
			} else {
				viol = s.xb[r] - s.hi[leave]
			}
			enter = s.dualRatioTest(below)
		}
		if enter < 0 {
			// No admissible entering column. With the violation comfortably
			// above tolerance this is a proof of infeasibility (see the
			// function comment); a marginal violation could be rounding, so
			// hand those to phase 1.
			if viol > 100*feasTol {
				return StatusInfeasible, false
			}
			return 0, true
		}
		if !s.dualPivot(enter, r, below, &stall) {
			return 0, true
		}
	}
}

// dualRatioTest picks the entering variable for the dual pivot on the
// current rho row. below reports the violated side of the leaving basic
// (true: below its lower bound, so the row value must increase). The
// admissible candidates are the nonbasic variables whose allowed movement
// direction reduces the violation: with ∂x_B[r]/∂x_j = −α_j, a variable at
// its lower bound (which may only increase) qualifies when α_j < 0 for a
// below-violation and α_j > 0 for an above-violation, and symmetrically for
// at-upper; free variables qualify for any nonzero α_j. Among candidates the
// classic dual ratio test picks the minimal |d_j/α_j| so every other reduced
// cost keeps its sign after the update d_k ← d_k − t·α_k — dual feasibility
// is preserved. Near-ties prefer the larger |α_j| (numerical stability),
// then the lower index (determinism). Returns −1 if no candidate exists.
func (s *simplex) dualRatioTest(below bool) int {
	best, bestT, bestA := -1, math.Inf(1), 0.0
	for j := 0; j < s.total; j++ {
		switch s.status[j] {
		case statusBasic:
			continue
		case statusAtLower:
			if s.hi[j]-s.lo[j] < feasTol && !math.IsInf(s.hi[j], 1) {
				continue // fixed variable
			}
		case statusAtUpper:
			if s.hi[j]-s.lo[j] < feasTol && !math.IsInf(s.lo[j], -1) {
				continue
			}
		}
		a := s.rowCoef(j)
		if math.Abs(a) < pivotTol {
			continue
		}
		ok := false
		switch s.status[j] {
		case statusAtLower:
			ok = (below && a < 0) || (!below && a > 0)
		case statusAtUpper:
			ok = (below && a > 0) || (!below && a < 0)
		case statusFree:
			ok = true
		}
		if !ok {
			continue
		}
		t := math.Abs(s.rc(j) / a)
		aa := math.Abs(a)
		if t < bestT-1e-10 || (t < bestT+1e-10 && aa > bestA) {
			best, bestT, bestA = j, t, aa
		}
	}
	return best
}

// dualPivot performs the basis exchange: the basic at position r leaves to
// its violated bound, enter becomes basic. Returns false to request a
// fallback when the pivot is numerically unusable or the solve is stalling
// in degenerate pivots.
func (s *simplex) dualPivot(enter, r int, below bool, stall *int) bool {
	s.ftran(enter)
	wr := s.w[r]
	if math.Abs(wr) < pivotTol {
		return false
	}
	leave := s.basis[r]
	bnd := s.hi[leave]
	leaveAt := byte(statusAtUpper)
	if below {
		bnd = s.lo[leave]
		leaveAt = statusAtLower
	}
	delta := (s.xb[r] - bnd) / wr
	for k := 0; k < s.m; k++ {
		s.xb[k] -= s.w[k] * delta
	}
	enterVal := s.nbVal(enter) + delta
	s.status[leave] = leaveAt
	s.pos[leave] = -1
	s.basis[r] = enter
	s.pos[enter] = int32(r)
	s.status[enter] = statusBasic
	s.xb[r] = enterVal
	s.appendEta(r)
	s.iters++
	if math.Abs(delta) < 1e-12 {
		s.degenTotal++
		*stall++
		if *stall > 5*(s.m+10) {
			return false
		}
	} else {
		*stall = 0
	}
	if s.sincePivot >= refactorEvery {
		if err := s.refactorize(); err != nil {
			// Keep the eta-composed inverse; a later pivot may recondition.
			return true
		}
	}
	return true
}

// phase1 minimizes total bound infeasibility of the basic variables.
// Returns StatusOptimal when a feasible basis is reached.
func (s *simplex) phase1() (Status, error) {
	for {
		if s.iters >= s.opts.MaxIters {
			return StatusIterLimit, nil
		}
		if s.interrupted() {
			return StatusCancelled, nil
		}
		// Phase-1 costs live only on basic variables; clear stale entries
		// from variables that left the basis before reassigning.
		clear(s.cost)
		s.objCost = false
		infeasible := false
		for k := 0; k < s.m; k++ {
			switch s.basicFeasibility(k) {
			case feaBelow:
				s.cost[s.basis[k]] = -1
				infeasible = true
			case feaAbove:
				s.cost[s.basis[k]] = 1
				infeasible = true
			default:
				s.cost[s.basis[k]] = 0
			}
		}
		if !infeasible {
			for j := range s.cost {
				s.cost[j] = 0
			}
			return StatusOptimal, nil
		}
		s.btran()
		enter, sigma := s.priceForEntering()
		if enter < 0 {
			// No improving direction: infeasibility is at its minimum.
			if s.totalInfeasibility() > 100*feasTol*float64(s.m+1) {
				return StatusInfeasible, nil
			}
			// Residual infeasibility within tolerance: accept.
			for j := range s.cost {
				s.cost[j] = 0
			}
			return StatusOptimal, nil
		}
		if err := s.step(enter, sigma, true); err != nil {
			return 0, err
		}
	}
}

// phase2 minimizes the true objective starting from a feasible basis.
func (s *simplex) phase2() (Status, error) {
	s.setObjCost()
	for {
		if s.iters >= s.opts.MaxIters {
			return StatusIterLimit, nil
		}
		if s.interrupted() {
			return StatusCancelled, nil
		}
		if !s.dFresh {
			s.btran()
		}
		enter, sigma := s.priceForEntering()
		if enter < 0 {
			return StatusOptimal, nil
		}
		unbounded, err := s.stepPhase2(enter, sigma)
		if err != nil {
			return 0, err
		}
		if unbounded {
			return StatusUnbounded, nil
		}
	}
}

// priceForEntering scans nonbasic variables for the best improving reduced
// cost and returns the entering variable and its movement direction
// (+1 increase, −1 decrease), or (−1, 0) if none improves.
func (s *simplex) priceForEntering() (int, int) {
	best, bestScore, bestSigma := -1, optTol, 0
	for j := 0; j < s.total; j++ {
		switch s.status[j] {
		case statusBasic:
			continue
		case statusAtLower:
			if s.hi[j]-s.lo[j] < feasTol && !math.IsInf(s.hi[j], 1) {
				continue // fixed variable
			}
			if d := s.rc(j); d < -bestScore {
				if s.blandActive {
					return j, +1
				}
				best, bestScore, bestSigma = j, -d, +1
			}
		case statusAtUpper:
			if s.hi[j]-s.lo[j] < feasTol && !math.IsInf(s.lo[j], -1) {
				continue
			}
			if d := s.rc(j); d > bestScore {
				if s.blandActive {
					return j, -1
				}
				best, bestScore, bestSigma = j, d, -1
			}
		case statusFree:
			d := s.rc(j)
			if d < -bestScore {
				if s.blandActive {
					return j, +1
				}
				best, bestScore, bestSigma = j, -d, +1
			} else if d > bestScore {
				if s.blandActive {
					return j, -1
				}
				best, bestScore, bestSigma = j, d, -1
			}
		}
	}
	return best, bestSigma
}

// ratioResult describes the outcome of a ratio test.
type ratioResult struct {
	t       float64 // step length
	leaveK  int     // leaving basis position, or -1 for a bound flip
	leaveAt byte    // status the leaving variable takes (statusAtLower/Upper)
}

// step performs one phase-1 iteration with entering variable `enter` moving
// in direction sigma. Phase 1 allows infeasible basics and blocks them at
// the violated bound (they leave the basis exactly feasible).
func (s *simplex) step(enter, sigma int, phase1 bool) error {
	s.ftran(enter)
	res := s.ratioTest(enter, sigma, phase1)
	if res.t < 0 {
		// An improving infeasibility direction must hit some bound; an
		// unbounded ray here means the basis inverse has degraded.
		return errors.New("lp: unbounded phase-1 ray (numerical failure)")
	}
	s.applyStep(enter, sigma, res)
	return nil
}

// stepPhase2 performs one phase-2 iteration; returns true if the problem is
// unbounded in the entering direction.
func (s *simplex) stepPhase2(enter, sigma int) (bool, error) {
	s.ftran(enter)
	res := s.ratioTest(enter, sigma, false)
	if res.t < 0 {
		return true, nil // no breakpoint: unbounded ray
	}
	s.applyStep(enter, sigma, res)
	return false, nil
}

// ratioTest finds the maximum step t for the entering variable and the
// blocking basic variable (or a bound flip). Returns t = -1 when unbounded.
func (s *simplex) ratioTest(enter, sigma int, phase1 bool) ratioResult {
	res := ratioResult{t: math.Inf(1), leaveK: -1}
	// Bound flip limit for the entering variable itself.
	if !math.IsInf(s.lo[enter], -1) && !math.IsInf(s.hi[enter], 1) {
		res.t = s.hi[enter] - s.lo[enter]
	}
	bestPiv := 0.0
	for k := 0; k < s.m; k++ {
		rate := -float64(sigma) * s.w[k] // d x_B[k] / dt
		if math.Abs(rate) < pivotTol {
			continue
		}
		j := s.basis[k]
		var limit float64
		var at byte
		switch fk := s.basicFeasibility(k); {
		case fk == feaOK && rate > 0:
			if math.IsInf(s.hi[j], 1) {
				continue
			}
			limit = (s.hi[j] - s.xb[k]) / rate
			at = statusAtUpper
		case fk == feaOK && rate < 0:
			if math.IsInf(s.lo[j], -1) {
				continue
			}
			limit = (s.xb[k] - s.lo[j]) / -rate
			at = statusAtLower
		case fk == feaBelow && rate > 0:
			// Infeasible below: blocks when it reaches its lower bound.
			limit = (s.lo[j] - s.xb[k]) / rate
			at = statusAtLower
		case fk == feaAbove && rate < 0:
			limit = (s.xb[k] - s.hi[j]) / -rate
			at = statusAtUpper
		default:
			// Moving further into infeasibility: does not block in phase 1;
			// in phase 2 all basics are feasible so this case cannot occur.
			continue
		}
		if limit < 0 {
			limit = 0
		}
		// Prefer strictly smaller limits; on near-ties prefer the larger
		// pivot magnitude for numerical stability (Harris-style tie-break).
		if limit < res.t-1e-10 || (limit < res.t+1e-10 && math.Abs(s.w[k]) > bestPiv) {
			res.t = limit
			res.leaveK = k
			res.leaveAt = at
			bestPiv = math.Abs(s.w[k])
		}
	}
	if math.IsInf(res.t, 1) {
		return ratioResult{t: -1}
	}
	return res
}

// applyStep moves the entering variable by t·sigma, updates basic values and
// performs the basis exchange (or bound flip).
func (s *simplex) applyStep(enter, sigma int, res ratioResult) {
	s.iters++
	t := res.t
	if t < 1e-12 {
		s.degenerate++
		s.degenTotal++
		if s.degenerate > 5*(s.m+10) {
			s.blandActive = true
		}
	} else {
		s.degenerate = 0
		s.blandActive = false
	}
	// Update basic values along the direction.
	if t != 0 {
		for k := 0; k < s.m; k++ {
			s.xb[k] -= t * float64(sigma) * s.w[k]
		}
	}
	if res.leaveK < 0 {
		// Bound flip: entering variable moves to its opposite bound.
		if sigma > 0 {
			s.status[enter] = statusAtUpper
		} else {
			s.status[enter] = statusAtLower
		}
		return
	}
	leave := s.basis[res.leaveK]
	enterVal := s.nbVal(enter) + t*float64(sigma)
	s.status[leave] = res.leaveAt
	s.pos[leave] = -1
	s.basis[res.leaveK] = enter
	s.pos[enter] = int32(res.leaveK)
	s.status[enter] = statusBasic
	s.xb[res.leaveK] = enterVal
	s.appendEta(res.leaveK)
	if s.sincePivot >= refactorEvery {
		if err := s.refactorize(); err == nil {
			return
		}
		// Singular refactorization should be impossible after a valid
		// pivot; keep the eta-composed inverse as a fallback.
	}
}
