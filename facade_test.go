package spq

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestFacadeOutOfCore drives the out-of-core half of the facade end to end:
// a CSV spilled to column files and reopened answers through the engine,
// before and after a delta, with the package the in-memory relation gives.
func TestFacadeOutOfCore(t *testing.T) {
	const n = 12
	var sb strings.Builder
	sb.WriteString("price,qty\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", 30+15*(i%5), 1+i%3)
	}
	csvText := sb.String()
	dir := t.TempDir()
	if _, err := SpillCSV("trades", strings.NewReader(csvText), dir); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenColumnDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	resident, err := ReadCSV("trades", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	register := func(rel *Relation) *DB {
		gains := make([]Dist, n)
		for i := range gains {
			gains[i] = UniformMixture(
				Normal{Mu: 0.4 + 0.3*float64(i%4), Sigma: 1},
				Normal{Mu: 0.1 * float64(i%3), Sigma: 0.5},
			)
		}
		if err := rel.AddStoch("gain", &IndependentVG{AttrID: 1, Dists: gains}); err != nil {
			t.Fatal(err)
		}
		db := NewDB()
		db.MeansM = 200
		if err := db.Register(rel); err != nil {
			t.Fatal(err)
		}
		return db
	}
	eng := NewEngine(register(lazy), nil)
	db := register(resident)

	const query = `SELECT PACKAGE(*) FROM trades WHERE price >= 45 SUCH THAT
		SUM(price) <= 200 AND
		SUM(gain) >= -4 WITH PROBABILITY >= 0.8
		MAXIMIZE EXPECTED SUM(gain)`
	same := func(label string) map[int]int {
		t.Helper()
		got, err := eng.Query(context.Background(), EngineRequest{Query: query, Options: fastOptions()})
		if err != nil {
			t.Fatalf("%s: engine: %v", label, err)
		}
		want, err := db.Query(query, fastOptions())
		if err != nil {
			t.Fatalf("%s: in-memory: %v", label, err)
		}
		if !want.Feasible || got.Feasible != want.Feasible ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: feasible %v objective %v, in memory feasible %v objective %v",
				label, got.Feasible, got.Objective, want.Feasible, want.Objective)
		}
		gotPkg := (&Result{Solution: got.Solution, Rel: got.Rel}).Multiplicities()
		if wantPkg := want.Multiplicities(); !reflect.DeepEqual(gotPkg, wantPkg) {
			t.Fatalf("%s: package %v, in memory %v", label, gotPkg, wantPkg)
		}
		return gotPkg
	}
	pkg := same("spilled")
	if !lazy.IsLazy("price") || !lazy.IsLazy("qty") {
		t.Fatal("the WHERE query promoted a spilled column")
	}

	before := DeltaStats()
	delta := func() *Delta {
		return &Delta{Set: map[string]map[int]float64{"price": {11: 300, 6: 30}}}
	}
	if _, err := eng.ApplyDelta("trades", delta()); err != nil {
		t.Fatal(err)
	}
	if _, err := resident.ApplyDelta(delta()); err != nil {
		t.Fatal(err)
	}
	after := DeltaStats()
	if after.DeltasApplied-before.DeltasApplied != 2 || after.CellsPatched-before.CellsPatched != 4 {
		t.Fatalf("DeltaStats moved by %d deltas and %d cells, want 2 and 4",
			after.DeltasApplied-before.DeltasApplied, after.CellsPatched-before.CellsPatched)
	}
	if moved := same("after delta"); reflect.DeepEqual(moved, pkg) {
		t.Fatalf("the delta left the package %v unchanged", pkg)
	}
}
