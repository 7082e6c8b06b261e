package spaql

import (
	"math"
	"strings"
	"testing"
)

// paperQuery is the Figure 1 query from the paper.
const paperQuery = `
SELECT PACKAGE(*) AS Portfolio
FROM Stock_Investments
SUCH THAT
  SUM(price) <= 1000 AND
  SUM(Gain) >= -10 WITH PROBABILITY >= 0.95
MAXIMIZE EXPECTED SUM(Gain)`

func TestParsePaperFigure1(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q.Alias != "Portfolio" || q.Table != "Stock_Investments" {
		t.Fatalf("alias/table = %q/%q", q.Alias, q.Table)
	}
	if len(q.Constraints) != 2 {
		t.Fatalf("got %d constraints, want 2", len(q.Constraints))
	}
	c0 := q.Constraints[0]
	if c0.Agg != AggSum || c0.Op != OpLE || c0.Value != 1000 || c0.Prob != nil {
		t.Fatalf("constraint 0 = %+v", c0)
	}
	if got := c0.Expr.Attrs(); len(got) != 1 || got[0] != "price" {
		t.Fatalf("constraint 0 attrs = %v", got)
	}
	c1 := q.Constraints[1]
	if c1.Prob == nil || c1.Prob.P != 0.95 || c1.Prob.Op != OpGE {
		t.Fatalf("constraint 1 = %+v", c1)
	}
	if c1.Op != OpGE || c1.Value != -10 {
		t.Fatalf("constraint 1 inner = %v %v", c1.Op, c1.Value)
	}
	if q.Objective == nil || q.Objective.Sense != Maximize || q.Objective.Kind != ObjExpected {
		t.Fatalf("objective = %+v", q.Objective)
	}
}

func TestParseGalaxyTemplate(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM Galaxy SUCH THAT
		COUNT(*) BETWEEN 5 AND 10 AND
		SUM(Petromag_r) >= 40 WITH PROBABILITY >= 0.9
		MINIMIZE EXPECTED SUM(Petromag_r)`)
	if err != nil {
		t.Fatal(err)
	}
	c0 := q.Constraints[0]
	if c0.Agg != AggCount || !c0.Between || c0.Lo != 5 || c0.Hi != 10 {
		t.Fatalf("count constraint = %+v", c0)
	}
	if q.Objective.Sense != Minimize {
		t.Fatal("objective sense wrong")
	}
}

func TestParseTPCHTemplateProbabilityObjective(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM Tpch SUCH THAT
		COUNT(*) BETWEEN 1 AND 10 AND
		SUM(Quantity) <= 15 WITH PROBABILITY >= 0.9
		MAXIMIZE PROBABILITY OF SUM(Revenue) >= 1000`)
	if err != nil {
		t.Fatal(err)
	}
	o := q.Objective
	if o.Kind != ObjProbability || o.Op != OpGE || o.Value != 1000 {
		t.Fatalf("objective = %+v", o)
	}
}

func TestParseRepeatAndWhere(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM t REPEAT 2
		WHERE price <= 500 AND (vol > 0.3 OR NOT region = 2)
		SUCH THAT COUNT(*) >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Repeat != 2 {
		t.Fatalf("Repeat = %d", q.Repeat)
	}
	if q.Where == nil {
		t.Fatal("missing WHERE")
	}
	vals := map[string]float64{"price": 400, "vol": 0.1, "region": 2}
	get := func(a string) float64 { return vals[a] }
	if q.Where.Eval(get) {
		t.Fatal("predicate should be false: price ok but vol low and region=2")
	}
	vals["vol"] = 0.5
	if !q.Where.Eval(get) {
		t.Fatal("predicate should be true with high vol")
	}
}

// TestQueryAttrsNestedWhere: the column footprint walks every branch of a
// nested AND/OR/NOT predicate, then the constraints, their filters and the
// objective, in first-reference order without repeats. A delta keeps a
// cached plan or result only when it misses this set, so a branch left out
// here would serve a stale package.
func TestQueryAttrsNestedWhere(t *testing.T) {
	q := MustParse(`SELECT PACKAGE(*) FROM t
		WHERE a >= 1 AND (b <= 2 OR NOT (c >= 3 AND NOT d = 4)) AND a <= 9
		SUCH THAT SUM(price) <= 10 AND
			(SELECT COUNT(*) WHERE NOT (e > 0 OR b < 1) FROM P) >= 1
		MAXIMIZE EXPECTED SUM(gain)`)
	got := strings.Join(q.Attrs(), ",")
	if want := "a,b,c,d,price,e,gain"; got != want {
		t.Fatalf("Attrs() = %s, want %s", got, want)
	}
}

func TestParseLinearExpressions(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM t SUCH THAT SUM(3*a - 2*b + c/4 - 1) >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	e := q.Constraints[0].Expr
	if len(e.Terms) != 3 {
		t.Fatalf("terms = %+v", e.Terms)
	}
	if e.Terms[0].Coef != 3 || e.Terms[0].Attr != "a" {
		t.Fatalf("term 0 = %+v", e.Terms[0])
	}
	if e.Terms[1].Coef != -2 || e.Terms[1].Attr != "b" {
		t.Fatalf("term 1 = %+v", e.Terms[1])
	}
	if e.Terms[2].Coef != 0.25 || e.Terms[2].Attr != "c" {
		t.Fatalf("term 2 = %+v", e.Terms[2])
	}
	if e.Const != -1 {
		t.Fatalf("const = %v", e.Const)
	}
}

func TestParseLeadingMinusAndAttrTimesNumber(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM t SUCH THAT SUM(-a + b*2) <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	e := q.Constraints[0].Expr
	if e.Terms[0].Coef != -1 || e.Terms[1].Coef != 2 {
		t.Fatalf("terms = %+v", e.Terms)
	}
}

func TestParseUnicodeComparators(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) ≤ 1000 AND SUM(g) ≥ -10 WITH PROBABILITY ≥ 0.95`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Constraints[0].Op != OpLE || q.Constraints[1].Op != OpGE {
		t.Fatal("unicode comparators misparsed")
	}
}

func TestParseComments(t *testing.T) {
	q, err := Parse("SELECT PACKAGE(*) FROM t -- the table\nSUCH THAT COUNT(*) = 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Constraints[0].Value != 3 {
		t.Fatal("comment broke parsing")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select package(*) from T such that count(*) >= 1 maximize expected sum(G)`); err != nil {
		t.Fatal(err)
	}
}

func TestParseScientificNumbers(t *testing.T) {
	q, err := Parse(`SELECT PACKAGE(*) FROM t SUCH THAT SUM(a) <= 1.5e3`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Constraints[0].Value != 1500 {
		t.Fatalf("value = %v", q.Constraints[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT * FROM t",
		"SELECT PACKAGE(*)",
		"SELECT PACKAGE(*) FROM",
		"SELECT PACKAGE(*) FROM t REPEAT -1",
		"SELECT PACKAGE(*) FROM t REPEAT 1.5",
		"SELECT PACKAGE(*) FROM t SUCH THAT",
		"SELECT PACKAGE(*) FROM t SUCH THAT SUM(a >= 1",
		"SELECT PACKAGE(*) FROM t SUCH THAT SUM(a) >= 1 WITH PROBABILITY = 0.5",
		"SELECT PACKAGE(*) FROM t SUCH THAT SUM(a) >= 1 WITH PROBABILITY >= 1.5",
		"SELECT PACKAGE(*) FROM t SUCH THAT SUM(a) BETWEEN 5 AND 2",
		"SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) >= 1 trailing",
		"SELECT PACKAGE(*) FROM t MAXIMIZE PROBABILITY OF COUNT(*) >= 1",
		"SELECT PACKAGE(*) FROM t SUCH THAT SUM(a/0) >= 1",
		"SELECT PACKAGE(*) FROM t WHERE a @ 3 SUCH THAT COUNT(*) = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		paperQuery,
		`SELECT PACKAGE(*) FROM Galaxy SUCH THAT COUNT(*) BETWEEN 5 AND 10 AND SUM(r) >= 40 WITH PROBABILITY >= 0.9 MINIMIZE EXPECTED SUM(r)`,
		`SELECT PACKAGE(*) FROM T REPEAT 3 WHERE a > 1 SUCH THAT EXPECTED SUM(g) >= 2`,
		`SELECT PACKAGE(*) FROM T SUCH THAT SUM(2*a - b) <= 7 MAXIMIZE PROBABILITY OF SUM(x) >= 100`,
		`SELECT PACKAGE(*) FROM T MINIMIZE COUNT(*)`,
		`SELECT PACKAGE(*) FROM T WHERE NOT (a = 1 OR b < 2) SUCH THAT COUNT(*) = 3 MAXIMIZE SUM(c)`,
	}
	for _, src := range queries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", printed, err)
		}
		if q2.String() != printed {
			t.Fatalf("round trip unstable:\n  first:  %s\n  second: %s", printed, q2.String())
		}
	}
}

func TestCmpOpCompare(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b float64
		want bool
	}{
		{OpLE, 1, 2, true}, {OpLE, 2, 2, true}, {OpLE, 3, 2, false},
		{OpGE, 3, 2, true}, {OpGE, 2, 2, true}, {OpGE, 1, 2, false},
		{OpEQ, 2, 2, true}, {OpEQ, 1, 2, false},
		{OpLT, 1, 2, true}, {OpLT, 2, 2, false},
		{OpGT, 3, 2, true}, {OpGT, 2, 2, false},
		{OpNE, 1, 2, true}, {OpNE, 2, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Compare(c.a, c.b); got != c.want {
			t.Errorf("%v.Compare(%v, %v) = %v", c.op, c.a, c.b, got)
		}
	}
}

// fakeSchema implements Schema for validation tests.
type fakeSchema struct {
	det   map[string]bool
	stoch map[string]bool
}

func (s fakeSchema) HasAttr(n string) bool      { return s.det[n] || s.stoch[n] }
func (s fakeSchema) IsStochastic(n string) bool { return s.stoch[n] }

var schema = fakeSchema{
	det:   map[string]bool{"price": true, "qty": true},
	stoch: map[string]bool{"gain": true, "flux": true},
}

func TestValidateAccepts(t *testing.T) {
	good := []string{
		`SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 1000 AND SUM(gain) >= -10 WITH PROBABILITY >= 0.95 MAXIMIZE EXPECTED SUM(gain)`,
		`SELECT PACKAGE(*) FROM t SUCH THAT COUNT(*) BETWEEN 1 AND 5`,
		`SELECT PACKAGE(*) FROM t WHERE price <= 10 SUCH THAT EXPECTED SUM(flux) <= 3`,
		`SELECT PACKAGE(*) FROM t MAXIMIZE PROBABILITY OF SUM(gain) >= 100`,
		`SELECT PACKAGE(*) FROM t MINIMIZE COUNT(*)`,
		`SELECT PACKAGE(*) FROM t SUCH THAT SUM(2*price + qty) <= 50`,
	}
	for _, src := range good {
		q := MustParse(src)
		if err := q.Validate(schema); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", src, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []struct {
		src, wantSub string
	}{
		{`SELECT PACKAGE(*) FROM t SUCH THAT SUM(gain) >= 0`, "EXPECTED or WITH PROBABILITY"},
		{`SELECT PACKAGE(*) FROM t SUCH THAT SUM(nope) >= 0`, "unknown attribute"},
		{`SELECT PACKAGE(*) FROM t WHERE gain > 0 SUCH THAT COUNT(*) = 1`, "stochastic"},
		{`SELECT PACKAGE(*) FROM t WHERE nope > 0 SUCH THAT COUNT(*) = 1`, "unknown"},
		{`SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 10 WITH PROBABILITY >= 0.9`, "vacuous"},
		{`SELECT PACKAGE(*) FROM t SUCH THAT EXPECTED SUM(gain) >= 0 WITH PROBABILITY >= 0.9`, "both"},
		{`SELECT PACKAGE(*) FROM t MAXIMIZE SUM(gain)`, "EXPECTED or PROBABILITY"},
		{`SELECT PACKAGE(*) FROM t MAXIMIZE PROBABILITY OF SUM(price) >= 1`, "vacuous"},
	}
	for _, c := range bad {
		q := MustParse(c.src)
		err := q.Validate(schema)
		if err == nil {
			t.Errorf("Validate(%q) = nil, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate(%q) = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestValidateProbabilisticBetweenRejected(t *testing.T) {
	q := &Query{
		Table: "t",
		Constraints: []*Constraint{{
			Agg:     AggSum,
			Expr:    LinExpr{Terms: []Term{{Coef: 1, Attr: "gain"}}},
			Between: true, Lo: 0, Hi: 1,
			Prob: &ProbClause{Op: OpGE, P: 0.9},
		}},
	}
	if err := q.Validate(schema); err == nil {
		t.Fatal("probabilistic BETWEEN accepted")
	}
}

func TestValidateBoundaryProbabilities(t *testing.T) {
	for _, p := range []float64{0, 1} {
		q := &Query{
			Table: "t",
			Constraints: []*Constraint{{
				Agg:  AggSum,
				Expr: LinExpr{Terms: []Term{{Coef: 1, Attr: "gain"}}},
				Op:   OpGE, Value: 0,
				Prob: &ProbClause{Op: OpGE, P: p},
			}},
		}
		if err := q.Validate(schema); err == nil {
			t.Errorf("probability %v accepted, want rejection", p)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("not a query")
}

func TestLinExprString(t *testing.T) {
	cases := []struct {
		e    LinExpr
		want string
	}{
		{LinExpr{Terms: []Term{{1, "a"}}}, "a"},
		{LinExpr{Terms: []Term{{-1, "a"}}}, "-a"},
		{LinExpr{Terms: []Term{{2.5, "a"}, {-1, "b"}}, Const: 3}, "2.5 * a - b + 3"},
		{LinExpr{Const: -4}, "-4"},
		{LinExpr{Terms: []Term{{1, "a"}, {1, "b"}}, Const: -1}, "a + b - 1"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBoolExprEvalNaNSafe(t *testing.T) {
	// Comparisons involving NaN are false; NOT makes them true.
	cmp := &Cmp{Attr: "a", Op: OpLT, Value: 1}
	get := func(string) float64 { return math.NaN() }
	if cmp.Eval(get) {
		t.Fatal("NaN < 1 should be false")
	}
	if !(&Not{E: cmp}).Eval(get) {
		t.Fatal("NOT (NaN < 1) should be true")
	}
}
