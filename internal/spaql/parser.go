package spaql

import (
	"fmt"
	"math"
)

// Parse parses an sPaQL query string into an AST. The grammar follows
// Figure 8 of the paper (Appendix A):
//
//	query      := SELECT PACKAGE '(' '*' ')' [AS ident] FROM ident
//	              [REPEAT number] [WHERE bool] [SUCH THAT constraint
//	              (AND constraint)*] [objective]
//	constraint := [EXPECTED] agg (cmp number | BETWEEN number AND number)
//	              [WITH PROBABILITY cmp number]
//	agg        := COUNT '(' '*' ')' | SUM '(' linexpr ')'
//	objective  := (MAXIMIZE|MINIMIZE) (EXPECTED agg
//	              | PROBABILITY OF agg cmp number | agg)
//	linexpr    := ['-'] term (('+'|'-') term)*
//	term       := number ['*' ident] | ident ['*' number | '/' number]
//	bool       := boolAnd (OR boolAnd)*
//	boolAnd    := boolAtom (AND boolAtom)*
//	boolAtom   := NOT boolAtom | '(' bool ')' | ident cmp number
func Parse(input string) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: input}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input starting with %q", p.peek().text)
	}
	return q, nil
}

// MustParse parses or panics; for tests and static query literals.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("spaql: %s (at offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokKeyword && t.text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if t := p.peek(); t.kind == tokSymbol && t.text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, found %q", sym, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if t := p.peek(); t.kind == tokIdent {
		p.i++
		return t.text, nil
	}
	return "", p.errorf("expected identifier, found %q", p.peek().text)
}

// expectNumber parses a number with optional unary minus.
func (p *parser) expectNumber() (float64, error) {
	neg := false
	if p.acceptSymbol("-") {
		neg = true
	} else if p.acceptSymbol("+") {
		// explicit positive sign
	}
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errorf("expected number, found %q", t.text)
	}
	p.i++
	if neg {
		return -t.num, nil
	}
	return t.num, nil
}

// cmpOps maps symbol text to operators.
var cmpOps = map[string]CmpOp{
	"<=": OpLE, ">=": OpGE, "=": OpEQ, "<": OpLT, ">": OpGT, "<>": OpNE,
}

func (p *parser) expectCmp() (CmpOp, error) {
	t := p.peek()
	if t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.i++
			return op, nil
		}
	}
	return 0, p.errorf("expected comparison operator, found %q", t.text)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Repeat: -1}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("PACKAGE"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("*"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		q.Alias = alias
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	q.Table = table
	if p.acceptKeyword("REPEAT") {
		v, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if v < 0 || v != float64(int(v)) {
			return nil, p.errorf("REPEAT limit must be a nonnegative integer, got %v", v)
		}
		q.Repeat = int(v)
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.acceptKeyword("SUCH") {
		if err := p.expectKeyword("THAT"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			q.Constraints = append(q.Constraints, c)
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if t := p.peek(); t.kind == tokKeyword && (t.text == "MAXIMIZE" || t.text == "MINIMIZE") {
		obj, err := p.parseObjective()
		if err != nil {
			return nil, err
		}
		q.Objective = obj
	}
	return q, nil
}

// parseAggClause parses either a bare aggregate or the PaQL general form
// '(' SELECT agg [WHERE bool] FROM ident ')', returning the optional filter.
func (p *parser) parseAggClause() (AggKind, LinExpr, BoolExpr, error) {
	if t := p.peek(); t.kind == tokSymbol && t.text == "(" {
		// Lookahead for SELECT to distinguish a subselect from other uses.
		if p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokKeyword && p.toks[p.i+1].text == "SELECT" {
			p.i += 2 // consume '(' SELECT
			agg, expr, err := p.parseAgg()
			if err != nil {
				return 0, LinExpr{}, nil, err
			}
			var filter BoolExpr
			if p.acceptKeyword("WHERE") {
				filter, err = p.parseBool()
				if err != nil {
					return 0, LinExpr{}, nil, err
				}
			}
			if err := p.expectKeyword("FROM"); err != nil {
				return 0, LinExpr{}, nil, err
			}
			if _, err := p.expectIdent(); err != nil { // package alias, e.g. P
				return 0, LinExpr{}, nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return 0, LinExpr{}, nil, err
			}
			return agg, expr, filter, nil
		}
	}
	agg, expr, err := p.parseAgg()
	return agg, expr, nil, err
}

// parseAgg parses COUNT(*) or SUM(linexpr).
func (p *parser) parseAgg() (AggKind, LinExpr, error) {
	if p.acceptKeyword("COUNT") {
		if err := p.expectSymbol("("); err != nil {
			return 0, LinExpr{}, err
		}
		if err := p.expectSymbol("*"); err != nil {
			return 0, LinExpr{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return 0, LinExpr{}, err
		}
		return AggCount, LinExpr{Const: 1}, nil
	}
	if p.acceptKeyword("SUM") {
		if err := p.expectSymbol("("); err != nil {
			return 0, LinExpr{}, err
		}
		e, err := p.parseLinExpr()
		if err != nil {
			return 0, LinExpr{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return 0, LinExpr{}, err
		}
		return AggSum, e, nil
	}
	return 0, LinExpr{}, p.errorf("expected COUNT or SUM, found %q", p.peek().text)
}

func (p *parser) parseConstraint() (*Constraint, error) {
	c := &Constraint{}
	if p.acceptKeyword("EXPECTED") {
		c.Expected = true
	}
	agg, expr, filter, err := p.parseAggClause()
	if err != nil {
		return nil, err
	}
	c.Agg = agg
	c.Expr = expr
	c.Filter = filter
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if lo > hi {
			return nil, p.errorf("BETWEEN bounds inverted: %v > %v", lo, hi)
		}
		c.Between = true
		c.Lo, c.Hi = lo, hi
	} else {
		op, err := p.expectCmp()
		if err != nil {
			return nil, err
		}
		v, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		c.Op = op
		c.Value = v
	}
	if p.acceptKeyword("WITH") {
		if err := p.expectKeyword("PROBABILITY"); err != nil {
			return nil, err
		}
		op, err := p.expectCmp()
		if err != nil {
			return nil, err
		}
		if op != OpGE && op != OpLE {
			return nil, p.errorf("WITH PROBABILITY requires >= or <=")
		}
		pv, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		if pv < 0 || pv > 1 {
			return nil, p.errorf("probability %v outside [0, 1]", pv)
		}
		c.Prob = &ProbClause{Op: op, P: pv}
	}
	return c, nil
}

func (p *parser) parseObjective() (*Objective, error) {
	obj := &Objective{}
	switch {
	case p.acceptKeyword("MAXIMIZE"):
		obj.Sense = Maximize
	case p.acceptKeyword("MINIMIZE"):
		obj.Sense = Minimize
	default:
		return nil, p.errorf("expected MAXIMIZE or MINIMIZE")
	}
	switch {
	case p.acceptKeyword("EXPECTED"):
		agg, expr, filter, err := p.parseAggClause()
		if err != nil {
			return nil, err
		}
		obj.Kind = ObjExpected
		if agg == AggCount {
			obj.Kind = ObjCount
		}
		obj.Expr = expr
		obj.Filter = filter
	case p.acceptKeyword("PROBABILITY"):
		if err := p.expectKeyword("OF"); err != nil {
			return nil, err
		}
		agg, expr, filter, err := p.parseAggClause()
		if err != nil {
			return nil, err
		}
		if agg == AggCount {
			return nil, p.errorf("PROBABILITY OF COUNT(*) is not supported; COUNT is deterministic")
		}
		op, err := p.expectCmp()
		if err != nil {
			return nil, err
		}
		v, err := p.expectNumber()
		if err != nil {
			return nil, err
		}
		obj.Kind = ObjProbability
		obj.Expr = expr
		obj.Filter = filter
		obj.Op = op
		obj.Value = v
	default:
		agg, expr, filter, err := p.parseAggClause()
		if err != nil {
			return nil, err
		}
		obj.Kind = ObjDeterministic
		if agg == AggCount {
			obj.Kind = ObjCount
		}
		obj.Expr = expr
		obj.Filter = filter
	}
	return obj, nil
}

// parseLinExpr parses a linear expression: [-] term ((+|-) term)*.
func (p *parser) parseLinExpr() (LinExpr, error) {
	var e LinExpr
	sign := 1.0
	if p.acceptSymbol("-") {
		sign = -1
	}
	if err := p.parseTerm(&e, sign); err != nil {
		return e, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			sign = 1
		case p.acceptSymbol("-"):
			sign = -1
		default:
			return e, nil
		}
		if err := p.parseTerm(&e, sign); err != nil {
			return e, err
		}
	}
}

// parseTerm parses number ['*' ident] | ident ['*' number | '/' number] and
// accumulates into e with the given sign.
func (p *parser) parseTerm(e *LinExpr, sign float64) error {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.i++
		coef := sign * t.num
		if p.acceptSymbol("*") {
			attr, err := p.expectIdent()
			if err != nil {
				return err
			}
			e.Terms = append(e.Terms, Term{Coef: coef, Attr: attr})
			return nil
		}
		e.Const += coef
		if math.IsInf(e.Const, 0) || math.IsNaN(e.Const) {
			return p.errorf("constant term overflows")
		}
		return nil
	case tokIdent:
		p.i++
		coef := sign
		if p.acceptSymbol("*") {
			num := p.peek()
			if num.kind != tokNumber {
				return p.errorf("expected number after '*', found %q", num.text)
			}
			p.i++
			coef *= num.num
		} else if p.acceptSymbol("/") {
			num := p.peek()
			if num.kind != tokNumber {
				return p.errorf("expected number after '/', found %q", num.text)
			}
			if num.num == 0 {
				return p.errorf("division by zero in linear expression")
			}
			p.i++
			coef /= num.num
			if math.IsInf(coef, 0) || math.IsNaN(coef) {
				return p.errorf("coefficient overflows")
			}
		}
		e.Terms = append(e.Terms, Term{Coef: coef, Attr: t.text})
		return nil
	default:
		return p.errorf("expected attribute or number, found %q", t.text)
	}
}

// parseBool parses OR-separated conjunctions.
func (p *parser) parseBool() (BoolExpr, error) {
	l, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseBoolAnd() (BoolExpr, error) {
	l, err := p.parseBoolAtom()
	if err != nil {
		return nil, err
	}
	for {
		// Lookahead: AND here belongs to WHERE only if followed by another
		// atom, not by a constraint keyword — but sPaQL places WHERE before
		// SUCH THAT, so any AND directly inside WHERE is a conjunction.
		if t := p.peek(); t.kind == tokKeyword && t.text == "AND" {
			p.i++
			r, err := p.parseBoolAtom()
			if err != nil {
				return nil, err
			}
			l = &And{L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseBoolAtom() (BoolExpr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseBoolAtom()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if p.acceptSymbol("(") {
		e, err := p.parseBool()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	attr, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	op, err := p.expectCmp()
	if err != nil {
		return nil, err
	}
	v, err := p.expectNumber()
	if err != nil {
		return nil, err
	}
	return &Cmp{Attr: attr, Op: op, Value: v}, nil
}
