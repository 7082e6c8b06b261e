package translate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"spq/internal/milp"
	"spq/internal/rng"
	"spq/internal/scenario"
)

// formulateSAA is the SAA_{Q,M} builder of §3.1 over materialized scenario
// sets, kept as the oracle for FormulateCSA over one-scenario summaries: one
// indicator per scenario and per probabilistic constraint, the count row
// Σy_j ≥ ⌈pM⌉, and for a probability objective one indicator per objective
// scenario worth −1/M.
func formulateSAA(s *SILP, sets []*scenario.Set, objSet *scenario.Set) (*milp.Model, *VarMap, error) {
	if len(sets) != len(s.ProbCons) {
		return nil, nil, fmt.Errorf("translate: got %d scenario sets for %d probabilistic constraints", len(sets), len(s.ProbCons))
	}
	indicators := 0
	for _, set := range sets {
		indicators += set.M()
	}
	if s.ObjKind == ObjProbability && objSet != nil {
		indicators += objSet.M()
	}
	m, vm := s.formulate(indicators, len(sets))
	for k, pc := range s.ProbCons {
		set := sets[k]
		ys := make([]int, set.M())
		for j := 0; j < set.M(); j++ {
			ys[j] = addIndicator(m, set.Row(j), pc.Geq, pc.V)
		}
		need := math.Ceil(pc.P * float64(set.M()))
		ones := make([]float64, len(ys))
		for i := range ones {
			ones[i] = 1
		}
		m.AddRow(ys, ones, need, milp.Inf)
		vm.ConsY = append(vm.ConsY, ys)
	}
	if s.ObjKind == ObjProbability {
		if objSet == nil {
			return nil, nil, errors.New("translate: probability objective requires an objective scenario set")
		}
		vm.ObjDenom = float64(objSet.M())
		for j := 0; j < objSet.M(); j++ {
			y := addIndicator(m, objSet.Row(j), s.ObjGeq, s.ObjV)
			m.SetObj(y, -1/vm.ObjDenom)
			vm.ObjY = append(vm.ObjY, y)
		}
	}
	return m, vm, nil
}

// randomSAAQuery draws a query with zero to two probabilistic constraints
// of either sense, some through a general-form aggregate's WHERE mask, an
// optional WHERE on the relation, and an expectation, probability or no
// objective; it always has at least one stochastic part.
func randomSAAQuery(r *rand.Rand) string {
	aggs := []string{
		"SUM(gain)",
		"SUM(risk)",
		"(SELECT SUM(gain) WHERE vol >= 0.1 FROM P)",
		"(SELECT SUM(risk) WHERE price <= 60 FROM P)",
	}
	senses := []string{">=", "<="}
	probs := []string{"0.5", "0.7", "0.9", "0.95"}
	var sb strings.Builder
	sb.WriteString("SELECT PACKAGE(*) AS P FROM assets")
	if r.IntN(3) == 0 {
		sb.WriteString(" WHERE price <= 75")
	}
	sb.WriteString(" SUCH THAT COUNT(*) <= 6")
	objs := []string{
		"",
		"MAXIMIZE EXPECTED SUM(gain)",
		"MAXIMIZE PROBABILITY OF SUM(gain) >= 1",
		"MAXIMIZE PROBABILITY OF (SELECT SUM(risk) WHERE vol >= 0.1 FROM P) <= 2",
		"MINIMIZE PROBABILITY OF SUM(gain) >= 3",
	}
	obj := objs[r.IntN(len(objs))]
	cons := r.IntN(3)
	if cons == 0 && !strings.Contains(obj, "PROBABILITY") {
		cons = 1
	}
	for c := 0; c < cons; c++ {
		fmt.Fprintf(&sb, " AND %s %s %.2f WITH PROBABILITY >= %s",
			aggs[r.IntN(len(aggs))], senses[r.IntN(2)], 8*r.Float64()-4, probs[r.IntN(len(probs))])
	}
	if obj != "" {
		sb.WriteString(" " + obj)
	}
	return sb.String()
}

// TestSingletonCSAIsSAA: FormulateCSA over the one-scenario summaries of
// scenarios 0..M−1, grown in two steps as Naïve grows M, builds the model
// formulateSAA builds over the materialized scenario sets, bit for bit:
// variables, rows, indicators and the variable map.
func TestSingletonCSAIsSAA(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewPCG(37, 1))
	for trial := 0; trial < 40; trial++ {
		rel := realizeRelation(t, 5+r.IntN(30))
		q := randomSAAQuery(r)
		s := buildQuery(t, q, rel)
		src := rng.NewSource(uint64(100 + trial))
		m := 1 + r.IntN(40)
		if trial%8 == 0 {
			m = 250 + r.IntN(20) // across a row chunk
		}
		first := r.IntN(m + 1)

		sets, objSet, err := s.GenerateSetsP(ctx, src, 0, m, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, wantVM, err := formulateSAA(s, sets, objSet)
		if err != nil {
			t.Fatal(err)
		}

		sums, objSums := singletons(t, s, src, 0, first)
		more, moreObj := singletons(t, s, src, first, m-first)
		for k := range sums {
			sums[k] = append(sums[k], more[k]...)
		}
		objSums = append(objSums, moreObj...)
		got, gotVM, err := s.FormulateCSA(sums, objSums)
		if err != nil {
			t.Fatalf("trial %d (%s, M=%d): %v", trial, q, m, err)
		}
		if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *want); g != w || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s, M=%d): singleton CSA model differs from SAA", trial, q, m)
		}
		if !reflect.DeepEqual(gotVM, wantVM) {
			t.Fatalf("trial %d (%s, M=%d): variable maps differ: %+v vs %+v", trial, q, m, gotVM, wantVM)
		}
	}
}
