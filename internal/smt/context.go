package smt

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"verdict/internal/cnf"
	"verdict/internal/expr"
	"verdict/internal/sat"
)

// linExpr is a linear form Σ coeffs[v]·tvar_v + konst over theory
// variables.
type linExpr struct {
	coeffs map[int]*big.Rat
	konst  *big.Rat
}

func constLin(k *big.Rat) linExpr {
	return linExpr{coeffs: map[int]*big.Rat{}, konst: k}
}

func (l linExpr) isConst() bool { return len(l.coeffs) == 0 }

func (l linExpr) add(o linExpr, sign int) linExpr {
	out := linExpr{coeffs: make(map[int]*big.Rat, len(l.coeffs)+len(o.coeffs)), konst: new(big.Rat)}
	for v, c := range l.coeffs {
		out.coeffs[v] = new(big.Rat).Set(c)
	}
	s := big.NewRat(int64(sign), 1)
	for v, c := range o.coeffs {
		addInto(out.coeffs, v, new(big.Rat).Mul(s, c))
	}
	out.konst.Add(l.konst, new(big.Rat).Mul(s, o.konst))
	return out
}

func (l linExpr) scale(k *big.Rat) linExpr {
	out := linExpr{coeffs: make(map[int]*big.Rat, len(l.coeffs)), konst: new(big.Rat).Mul(l.konst, k)}
	for v, c := range l.coeffs {
		if p := new(big.Rat).Mul(c, k); p.Sign() != 0 {
			out.coeffs[v] = p
		}
	}
	return out
}

// atom is a theory atom Σ coeffs·x ⋈ k with ⋈ ∈ {≤, <}; its boolean
// face is lit.
type atom struct {
	lin    linExpr
	strict bool
	lit    sat.Lit
}

type tvarKey struct {
	v   *expr.Var
	fid int
}

// Context couples a SAT solver, a CNF encoder for the finite fragment,
// and the LRA theory. Use NewContext, compile constraints with Lit or
// Assert, then call Solve.
type Context struct {
	Sat *sat.Solver
	Enc *cnf.Encoder

	// MaxTheoryIterations bounds the lazy refinement loop (0 = 10^6).
	MaxTheoryIterations int
	// TheoryConflicts counts blocking clauses learned (statistics).
	TheoryConflicts int
	// BlockFullAssignment, when true, blocks theory conflicts with the
	// full atom assignment instead of the simplex explanation — the
	// ablation knob measuring how much conflict explanations matter.
	BlockFullAssignment bool

	tvars    []string // theory var names, index = theory var id
	varOf    map[tvarKey]int
	atoms    []atom
	atomKey  map[string]int // canonical form -> atom index
	iteMemo  map[iteKey]linExpr
	iteCount int
	fids     map[*cnf.Frame]int
	nextFid  int

	model []*big.Rat // theory model after a Sat result
}

type iteKey struct {
	e        *expr.Expr
	cur, nxt int
}

// NewContext returns a context over fresh SAT and CNF instances.
func NewContext() *Context {
	s := sat.New()
	c := &Context{
		Sat:     s,
		Enc:     cnf.NewEncoder(s),
		varOf:   make(map[tvarKey]int),
		atomKey: make(map[string]int),
		iteMemo: make(map[iteKey]linExpr),
		fids:    make(map[*cnf.Frame]int),
	}
	c.Enc.Extern = c.extern
	return c
}

// TheoryVar returns (allocating on first use) the theory variable for
// a real ts variable in the given frame. Frame nil means the global
// (parameter) frame.
func (c *Context) TheoryVar(v *expr.Var, frame *cnf.Frame) int {
	key := tvarKey{v, c.frameID(frame)}
	if id, ok := c.varOf[key]; ok {
		return id
	}
	id := len(c.tvars)
	c.tvars = append(c.tvars, fmt.Sprintf("%s@%d", v.Name, key.fid))
	c.varOf[key] = id
	return id
}

// frameID assigns stable small ids to frames by pointer identity; nil
// (the parameter frame) is 0.
func (c *Context) frameID(f *cnf.Frame) int {
	if f == nil {
		return 0
	}
	if id, ok := c.fids[f]; ok {
		return id
	}
	c.nextFid++
	c.fids[f] = c.nextFid
	return c.nextFid
}

// Lit compiles a (possibly mixed finite/real) boolean expression.
func (c *Context) Lit(e *expr.Expr, cur, next *cnf.Frame) sat.Lit {
	return c.Enc.Lit(e, cur, next)
}

// Assert adds a hard constraint.
func (c *Context) Assert(e *expr.Expr, cur, next *cnf.Frame) {
	c.Sat.AddClause(c.Lit(e, cur, next))
}

// extern intercepts comparisons with real-typed operands.
func (c *Context) extern(e *expr.Expr, cur, next *cnf.Frame) (sat.Lit, bool) {
	switch e.Op {
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		if e.Args[0].Type().Kind != expr.KindReal && e.Args[1].Type().Kind != expr.KindReal {
			return 0, false
		}
	default:
		return 0, false
	}
	a := c.lin(e.Args[0], cur, next)
	b := c.lin(e.Args[1], cur, next)
	diff := a.add(b, -1) // a - b
	switch e.Op {
	case expr.OpLe:
		return c.atomLit(diff, false), true
	case expr.OpLt:
		return c.atomLit(diff, true), true
	case expr.OpGe:
		return c.atomLit(diff.scale(big.NewRat(-1, 1)), false), true
	case expr.OpGt:
		return c.atomLit(diff.scale(big.NewRat(-1, 1)), true), true
	case expr.OpEq:
		le := c.atomLit(diff, false)
		ge := c.atomLit(diff.scale(big.NewRat(-1, 1)), false)
		return c.Enc.And(le, ge), true
	case expr.OpNe:
		lt := c.atomLit(diff, true)
		gt := c.atomLit(diff.scale(big.NewRat(-1, 1)), true)
		return c.Enc.Or(lt, gt), true
	}
	return 0, false
}

// atomLit returns the literal for the atom lin ⋈ 0 (⋈ is < when
// strict, ≤ otherwise), normalizing and deduplicating.
func (c *Context) atomLit(lin linExpr, strict bool) sat.Lit {
	if lin.isConst() {
		s := lin.konst.Sign()
		if s < 0 || (s == 0 && !strict) {
			return c.Enc.True()
		}
		return c.Enc.False()
	}
	// Canonical form: divide by |coefficient of smallest var id|.
	ids := make([]int, 0, len(lin.coeffs))
	for v := range lin.coeffs {
		ids = append(ids, v)
	}
	sort.Ints(ids)
	lead := new(big.Rat).Abs(lin.coeffs[ids[0]])
	norm := lin.scale(new(big.Rat).Inv(lead))
	var b strings.Builder
	for _, v := range ids {
		fmt.Fprintf(&b, "%d:%s;", v, norm.coeffs[v].RatString())
	}
	fmt.Fprintf(&b, "|%s|%v", norm.konst.RatString(), strict)
	key := b.String()
	if idx, ok := c.atomKey[key]; ok {
		return c.atoms[idx].lit
	}
	lit := sat.Pos(c.Sat.NewVar())
	c.atomKey[key] = len(c.atoms)
	c.atoms = append(c.atoms, atom{lin: norm, strict: strict, lit: lit})
	return lit
}

// lin compiles a numeric expression into a linear form over theory
// variables. Only linear real arithmetic is accepted; nonlinear
// products are rejected with a descriptive panic (verdict models keep
// latency-curve slopes concrete for exactly this reason — see
// DESIGN.md).
func (c *Context) lin(e *expr.Expr, cur, next *cnf.Frame) linExpr {
	switch e.Op {
	case expr.OpConst:
		switch e.Val.Kind {
		case expr.KindInt:
			return constLin(new(big.Rat).SetInt64(e.Val.I))
		case expr.KindReal:
			return constLin(new(big.Rat).Set(e.Val.R))
		}
		panic(fmt.Sprintf("smt: non-numeric constant %s in arithmetic context", e))
	case expr.OpVar, expr.OpNext:
		if e.V.T.Kind != expr.KindReal {
			panic(fmt.Sprintf("smt: finite variable %s mixed into real arithmetic; model it as real instead", e.V.Name))
		}
		f := cur
		if e.Op == expr.OpNext {
			f = next
		}
		if e.V.Param {
			f = nil // parameters live in the global frame
		}
		tv := c.TheoryVar(e.V, f)
		return linExpr{coeffs: map[int]*big.Rat{tv: big.NewRat(1, 1)}, konst: new(big.Rat)}
	case expr.OpAdd:
		acc := c.lin(e.Args[0], cur, next)
		for _, a := range e.Args[1:] {
			acc = acc.add(c.lin(a, cur, next), 1)
		}
		return acc
	case expr.OpSub:
		return c.lin(e.Args[0], cur, next).add(c.lin(e.Args[1], cur, next), -1)
	case expr.OpNeg:
		return c.lin(e.Args[0], cur, next).scale(big.NewRat(-1, 1))
	case expr.OpMul:
		acc := c.lin(e.Args[0], cur, next)
		for _, a := range e.Args[1:] {
			o := c.lin(a, cur, next)
			switch {
			case o.isConst():
				acc = acc.scale(o.konst)
			case acc.isConst():
				acc = o.scale(acc.konst)
			default:
				panic(fmt.Sprintf("smt: nonlinear product in %s; QF_LRA requires one constant factor", e))
			}
		}
		return acc
	case expr.OpDiv:
		den := c.lin(e.Args[1], cur, next)
		if !den.isConst() || den.konst.Sign() == 0 {
			panic(fmt.Sprintf("smt: division by non-constant or zero in %s", e))
		}
		return c.lin(e.Args[0], cur, next).scale(new(big.Rat).Inv(den.konst))
	case expr.OpIte:
		key := iteKey{e, c.frameID(cur), c.frameID(next)}
		if l, ok := c.iteMemo[key]; ok {
			return l
		}
		cond := c.Lit(e.Args[0], cur, next)
		thn := c.lin(e.Args[1], cur, next)
		els := c.lin(e.Args[2], cur, next)
		// Fresh theory var y with (cond -> y = thn) and (!cond -> y = els).
		c.iteCount++
		y := len(c.tvars)
		c.tvars = append(c.tvars, fmt.Sprintf("$ite%d", c.iteCount))
		yl := linExpr{coeffs: map[int]*big.Rat{y: big.NewRat(1, 1)}, konst: new(big.Rat)}
		c.guardEq(cond, yl, thn)
		c.guardEq(cond.Not(), yl, els)
		c.iteMemo[key] = yl
		return yl
	}
	panic(fmt.Sprintf("smt: cannot linearize op %v in %s", e.Op, e))
}

// guardEq asserts g -> (a = b) as two guarded atoms.
func (c *Context) guardEq(g sat.Lit, a, b linExpr) {
	diff := a.add(b, -1)
	le := c.atomLit(diff, false)
	ge := c.atomLit(diff.scale(big.NewRat(-1, 1)), false)
	c.Sat.AddClause(g.Not(), le)
	c.Sat.AddClause(g.Not(), ge)
}

// Solve runs the lazy DPLL(T) loop under the given assumptions.
func (c *Context) Solve(assumptions ...sat.Lit) sat.Status {
	maxIter := c.MaxTheoryIterations
	if maxIter == 0 {
		maxIter = 1_000_000
	}
	for iter := 0; iter < maxIter; iter++ {
		st := c.Sat.Solve(assumptions...)
		if st != sat.Sat {
			return st
		}
		if c.checkTheory() {
			return sat.Sat
		}
	}
	return sat.Unknown
}

// checkTheory validates the current boolean model against LRA. On
// success the theory model is stored and true returned; otherwise a
// blocking clause is added and false returned.
func (c *Context) checkTheory() bool {
	sx := NewSimplex()
	// Theory variables map 1:1 onto the first len(c.tvars) simplex vars.
	for range c.tvars {
		sx.NewVar()
	}
	slackOf := make(map[string]int)
	var asserted []sat.Lit // lit per tag index
	var confl Conflict
	for i := range c.atoms {
		at := &c.atoms[i]
		val := c.Sat.ValueLit(at.lit)
		if val == sat.Undef {
			continue
		}
		// slack = Σ coeffs·x; bound with ±konst.
		ids := make([]int, 0, len(at.lin.coeffs))
		for v := range at.lin.coeffs {
			ids = append(ids, v)
		}
		sort.Ints(ids)
		var kb strings.Builder
		for _, v := range ids {
			fmt.Fprintf(&kb, "%d:%s;", v, at.lin.coeffs[v].RatString())
		}
		sk := kb.String()
		slack, ok := slackOf[sk]
		if !ok {
			slack = sx.DefineSlack(at.lin.coeffs)
			slackOf[sk] = slack
		}
		tag := len(asserted)
		bnd := new(big.Rat).Neg(at.lin.konst) // Σc·x ⋈ -konst
		if val == sat.TrueV {
			asserted = append(asserted, at.lit)
			if at.strict {
				confl = sx.AssertUpper(slack, DStrictBelow(bnd), tag)
			} else {
				confl = sx.AssertUpper(slack, DRat(bnd), tag)
			}
		} else {
			asserted = append(asserted, at.lit.Not())
			// ¬(t ≤ k) is t > k; ¬(t < k) is t ≥ k.
			if at.strict {
				confl = sx.AssertLower(slack, DRat(bnd), tag)
			} else {
				confl = sx.AssertLower(slack, DStrictAbove(bnd), tag)
			}
		}
		if confl != nil {
			break
		}
	}
	if confl == nil {
		confl = sx.Check()
	}
	if confl == nil {
		c.model = sx.Model()[:len(c.tvars)]
		return true
	}
	c.TheoryConflicts++
	var clause []sat.Lit
	if c.BlockFullAssignment {
		seen := make(map[sat.Lit]bool)
		for _, l := range asserted {
			if !seen[l] {
				seen[l] = true
				clause = append(clause, l.Not())
			}
		}
	} else {
		seen := make(map[int]bool)
		for _, tag := range confl {
			if tag < 0 || tag >= len(asserted) || seen[tag] {
				continue
			}
			seen[tag] = true
			clause = append(clause, asserted[tag].Not())
		}
	}
	c.Sat.AddClause(clause...)
	return false
}

// RealValue returns the theory model value of a real ts variable in a
// frame (nil frame = parameter). Valid after a Sat result from Solve.
func (c *Context) RealValue(v *expr.Var, frame *cnf.Frame) *big.Rat {
	f := frame
	if v.Param {
		f = nil
	}
	id, ok := c.varOf[tvarKey{v, c.frameID(f)}]
	if !ok || c.model == nil || id >= len(c.model) {
		return new(big.Rat)
	}
	return c.model[id]
}

// NumAtoms returns the number of distinct theory atoms created.
func (c *Context) NumAtoms() int { return len(c.atoms) }
