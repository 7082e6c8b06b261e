package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"spq/client"
	"spq/internal/core"
	"spq/internal/relation"
	"spq/internal/spaql"
	"spq/internal/translate"
)

// checkSeed drives the harness's own validation scenarios. The engine never
// sees it (its default is a different constant), so the re-validation is
// out-of-sample with respect to everything the program did.
const checkSeed = 0xbe7c4c4ec4

// checkSlack is how far below p a satisfied fraction may fall at M̂ = checkM
// before the package counts as infeasible: the engine validated it at ≥ p on
// its own sample, and two samples of 10⁴ disagree by a few thousandths.
const checkSlack = 0.01

//go:embed reference.json
var referenceJSON []byte

// reference is the committed best-known objective of one template.
type reference struct {
	Objective float64 `json:"objective"`
	Maximize  bool    `json:"maximize"`
}

func loadReferences() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// verdict is the harness's own judgement of one answer.
type verdict struct {
	ok         bool
	objective  float64 // validation estimate under checkSeed
	minSurplus float64
	maximize   bool
	// coldObjective is the harness-validated objective of a cold evaluation
	// of the same problem; set for warm re-solves only (delta_churn).
	coldObjective float64
	hasCold       bool
}

// checker re-validates answers outside the timed span. Identical answers to
// identical problems are validated once.
type checker struct {
	sz    sizes
	full  bool // sizes are the ones reference.json was made for
	memo  map[string]*verdict
	silps map[string]*translate.SILP
	refs  map[string]reference

	feasibleOps, feasibleOK int
	answers                 []answer
}

// answer is one validated-feasible op, kept for approx_ratio.
type answer struct {
	tmpl     string
	state    string
	pristine bool // no delta has touched what the query reads
	v        *verdict
}

func newChecker(sz sizes, p *plan) *checker {
	refs, err := loadReferences()
	if err != nil {
		panic(err) // the file is embedded: a parse error is a build defect
	}
	return &checker{sz: sz, full: sz.full, memo: map[string]*verdict{}, silps: map[string]*translate.SILP{}, refs: refs}
}

func (c *checker) validationOptions() *core.Options {
	return &core.Options{ValidationSeed: checkSeed, ValidationM: c.sz.checkM, Parallelism: 2}
}

// silpFor lowers the op's query over the relation its answer indexes. Static
// tables give one problem per template; delta_churn gives one per op.
func (c *checker) silpFor(in *instance, o *op, out *outcome, stateTag string) (*translate.SILP, error) {
	key := o.tmpl.id + "|" + stateTag
	if s, ok := c.silps[key]; ok {
		return s, nil
	}
	q, rel := out.query, out.rel
	if rel == nil { // HTTP answer: tuples index the base table
		var err error
		if q, err = spaql.Parse(o.tmpl.query); err != nil {
			return nil, err
		}
		rel = in.cat[o.tmpl.table].Snapshot()
	}
	s, err := translate.Build(q, rel, nil)
	if err != nil {
		return nil, err
	}
	c.silps[key] = s
	return s, nil
}

// vectorOf spreads a package of base tuples over the problem's view.
func vectorOf(rel *relation.Relation, pkg []client.PackageTuple) ([]float64, error) {
	n := rel.N()
	at := make(map[int]int, n)
	for i := 0; i < n; i++ {
		at[rel.OrigIndex(i)] = i
	}
	x := make([]float64, n)
	for _, pt := range pkg {
		i, ok := at[pt.Tuple]
		if !ok {
			return nil, fmt.Errorf("package names tuple %d, which the query's view does not hold", pt.Tuple)
		}
		x[i] = float64(pt.Count)
	}
	return x, nil
}

func (c *checker) validate(silp *translate.SILP, x []float64) (*verdict, error) {
	val, err := core.Validate(context.Background(), silp, x, c.validationOptions())
	if err != nil {
		return nil, err
	}
	v := &verdict{ok: true, objective: val.Objective, minSurplus: math.Inf(1), maximize: silp.Maximize}
	for _, s := range val.Surpluses {
		v.minSurplus = math.Min(v.minSurplus, s)
		if s < -checkSlack {
			v.ok = false
		}
	}
	return v, nil
}

// judge re-validates one answer, or recalls the verdict on an identical one.
func (c *checker) judge(in *instance, o *op, out *outcome, stateTag string) (*verdict, error) {
	key := o.tmpl.id + "|" + stateTag + "|" + out.pkgKey()
	if v, ok := c.memo[key]; ok {
		return v, nil
	}
	silp, err := c.silpFor(in, o, out, stateTag)
	if err != nil {
		return nil, err
	}
	x := out.x
	if x == nil {
		if x, err = vectorOf(silp.Rel, out.pkg); err != nil {
			return nil, err
		}
	}
	v, err := c.validate(silp, x)
	if err != nil {
		return nil, err
	}
	if out.warm && v.ok {
		// What a cold evaluation of the same problem would have answered:
		// the reference a warm re-solve is held to.
		opts := o.tmpl.opts
		opts.Seed, opts.Parallelism = o.seed, 2
		cold, _, err := o.tmpl.solve(context.Background(), silp, &opts, 2)
		if err != nil {
			return nil, fmt.Errorf("cold reference solve: %w", err)
		}
		if cold.Feasible {
			cv, err := c.validate(silp, cold.X)
			if err != nil {
				return nil, err
			}
			if cv.ok {
				v.coldObjective, v.hasCold = cv.objective, true
			}
		}
	}
	c.memo[key] = v
	return v, nil
}

// checkRound judges every op of one round and books failures.
func (c *checker) checkRound(in *instance, p *plan, rr *roundResult, round int, rep *runReport) {
	for cl, script := range p.scripts {
		for i := range script {
			o, out := &script[i], &rr.outcomes[cl][i]
			rep.attempted++
			fail := func(why string) {
				out.fail = why
			}
			if out.fail == "" && o.tmpl != nil {
				switch {
				case !o.tmpl.feasible:
					if out.feasible {
						fail("wrong_verdict: infeasible-by-construction query came back feasible")
					}
				case !out.feasible:
					fail("wrong_verdict: feasible-by-construction query came back infeasible")
				default:
					v, err := c.judge(in, o, out, out.state)
					switch {
					case err != nil:
						fail("error: re-validation: " + err.Error())
					case !v.ok:
						fail(fmt.Sprintf("revalidation: satisfied fraction %.4f below p at M̂=%d", v.minSurplus, c.sz.checkM))
					default:
						c.answers = append(c.answers, answer{o.tmpl.id, out.state, out.pristine, v})
					}
				}
			}
			if o.tmpl != nil && o.tmpl.feasible {
				c.feasibleOps++
				if out.fail == "" {
					c.feasibleOK++
				}
			}
			if out.fail != "" {
				rep.failed++
				if len(rep.failures) < 20 {
					rep.failures = append(rep.failures, fmt.Sprintf("round %d client %d op %d %s: %s", round, cl, i, o, out.fail))
				}
			}
		}
	}
}

// finish computes the two quality metrics over every checked answer.
func (c *checker) finish(rep *runReport) {
	frac := 1.0
	if c.feasibleOps > 0 {
		frac = float64(c.feasibleOK) / float64(c.feasibleOps)
	}
	rep.set("feasible_frac", frac, "frac")

	// Reference per template and state of its data: the committed one when
	// sizes and data are the ones it was made for, else the best this run
	// saw; for a warm re-solve, the cold evaluation of the same problem.
	best := map[string]float64{}
	for _, a := range c.answers {
		key := a.tmpl + "|" + a.state
		b, ok := best[key]
		if !ok || (a.v.maximize && a.v.objective > b) || (!a.v.maximize && a.v.objective < b) {
			best[key] = a.v.objective
		}
	}
	gapSum, beaten := 0.0, map[string]bool{}
	for _, a := range c.answers {
		ref, fromFile := best[a.tmpl+"|"+a.state], false
		if r, ok := c.refs[a.tmpl]; ok && c.full && a.pristine {
			ref, fromFile = r.Objective, true
		}
		if a.v.hasCold {
			ref, fromFile = a.v.coldObjective, false
		}
		gap := ref - a.v.objective
		if !a.v.maximize {
			gap = -gap
		}
		if gap < 0 {
			if fromFile {
				beaten[a.tmpl] = true
			}
			gap = 0
		}
		if ref != 0 {
			gapSum += gap / math.Abs(ref)
		}
	}
	ratio := 1.0
	if len(c.answers) > 0 {
		ratio += gapSum / float64(len(c.answers))
	}
	rep.set("approx_ratio", ratio, "ratio")
	if len(beaten) > 0 {
		var ids []string
		for id := range beaten {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		rep.notes = append(rep.notes, fmt.Sprintf("beat the committed reference (clipped at 1, reference.json not rewritten): %v", ids))
	}
}
