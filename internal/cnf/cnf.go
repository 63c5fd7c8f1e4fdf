// Package cnf compiles expr expressions into CNF over a sat.Solver.
//
// Booleans become literals via Tseitin transformation with structural
// hashing. Bounded integers and enums are bit-blasted into offset
// bit-vectors of literals by internal/bitvec, for which the Encoder's
// gates are the boolean algebra. Count comparisons against constants
// use a sequential-counter cardinality encoding; Encoder.NoSeqCounter
// falls back to bitvec's adder-tree popcount.
//
// The same expression can be instantiated at many time frames — the
// bounded model checker unrolls the transition relation by compiling
// TRANS once per step with different (current, next) frames.
package cnf

import (
	"fmt"
	"math/bits"

	"verdict/internal/bitvec"
	"verdict/internal/expr"
	"verdict/internal/sat"
)

// CompileError reports an input expression the encoder cannot compile
// to CNF: an unsupported operator, a non-finite type reaching the
// bit-blaster, or variable*variable multiplication. The encoder panics
// with it — the recursive compilation has no error plumbing — and the
// model-checking entry points recover it into an ordinary error, so
// library callers never observe the panic. Internal-invariant
// violations still panic with plain strings and are not recovered.
type CompileError struct{ Msg string }

func (e *CompileError) Error() string { return "cnf: " + e.Msg }

// failf panics with a CompileError for an input-reachable defect.
func failf(format string, args ...any) {
	panic(&CompileError{Msg: fmt.Sprintf(format, args...)})
}

// Frame assigns SAT variables to a set of ts variables at one point in
// time. Frames are created by Encoder.NewFrame.
type Frame struct {
	id   int
	vars []*expr.Var // declaration order, for deterministic iteration
	bits map[*expr.Var]bv
}

// bv is an offset bitvector whose bits are SAT literals (possibly the
// constant literals).
type bv = bitvec.Vec[sat.Lit]

// Encoder compiles expressions to CNF incrementally.
type Encoder struct {
	S *sat.Solver

	// Params, when set, resolves variables not found in a frame —
	// parameters live in a single time-invariant frame.
	Params *Frame

	// NoSeqCounter disables the sequential-counter cardinality
	// encoding, forcing the adder-tree fallback (ablation knob).
	NoSeqCounter bool

	// Extern, when set, is consulted before compiling any boolean
	// node; returning ok=true short-circuits with the given literal.
	// The SMT layer uses this to claim real-valued comparisons as
	// theory atoms while the finite structure stays in CNF.
	Extern func(ex *expr.Expr, cur, next *Frame) (sat.Lit, bool)

	trueLit sat.Lit
	nextFid int

	boolMemo map[boolKey]sat.Lit
	bvMemo   map[boolKey]bv
	gateMemo map[gateKey]sat.Lit
	cardMemo map[cardKey][]sat.Lit
}

type boolKey struct {
	e        *expr.Expr
	cur, nxt int
}

type gateKey struct {
	op      byte // '&', '|', '^', 'm' (majority), 'i' (ite)
	a, b, c sat.Lit
}

type cardKey struct {
	e        *expr.Expr // the Count node
	cur, nxt int
	k        int
}

// NewEncoder returns an encoder over solver s. A fresh "constant true"
// variable is allocated immediately.
func NewEncoder(s *sat.Solver) *Encoder {
	e := &Encoder{
		S:        s,
		boolMemo: make(map[boolKey]sat.Lit),
		bvMemo:   make(map[boolKey]bv),
		gateMemo: make(map[gateKey]sat.Lit),
		cardMemo: make(map[cardKey][]sat.Lit),
	}
	e.trueLit = sat.Pos(s.NewVar())
	s.AddClause(e.trueLit)
	return e
}

// True returns the constant-true literal.
func (e *Encoder) True() sat.Lit { return e.trueLit }

// False returns the constant-false literal.
func (e *Encoder) False() sat.Lit { return e.trueLit.Not() }

// Not returns the negation of l.
func (e *Encoder) Not(l sat.Lit) sat.Lit { return l.Not() }

// NewFrame allocates fresh SAT variables for every given ts variable
// and asserts domain (range) constraints.
func (e *Encoder) NewFrame(vars []*expr.Var) *Frame {
	e.nextFid++
	f := &Frame{
		id:   e.nextFid,
		vars: append([]*expr.Var(nil), vars...),
		bits: make(map[*expr.Var]bv, len(vars)),
	}
	for _, v := range vars {
		f.bits[v] = e.newVarBits(v.T)
	}
	return f
}

func (e *Encoder) newVarBits(t expr.Type) bv {
	switch t.Kind {
	case expr.KindBool:
		return bitvec.Bit(sat.Pos(e.S.NewVar()))
	case expr.KindInt, expr.KindEnum:
		lo, hi := domainBounds(t)
		span := uint64(hi - lo)
		w := bits.Len64(span)
		if w == 0 {
			return bv{Off: lo} // singleton domain, no bits
		}
		ls := make([]sat.Lit, w)
		for i := range ls {
			ls[i] = sat.Pos(e.S.NewVar())
		}
		e.assertLeConst(ls, span)
		return bv{Bits: ls, Off: lo}
	}
	failf("cannot allocate SAT bits for %s-typed variable", t)
	panic("unreachable")
}

func domainBounds(t expr.Type) (int64, int64) {
	switch t.Kind {
	case expr.KindInt:
		return t.Lo, t.Hi
	case expr.KindEnum:
		return 0, int64(len(t.Values) - 1)
	}
	failf("domainBounds on %s", t)
	panic("unreachable")
}

// assertLeConst asserts that the unsigned value of ls is <= c.
func (e *Encoder) assertLeConst(ls []sat.Lit, c uint64) {
	if c >= (1<<uint(len(ls)))-1 {
		return
	}
	for i := len(ls) - 1; i >= 0; i-- {
		if c>>uint(i)&1 == 1 {
			continue
		}
		// If all higher bits where c has a 1 are set, bit i must be 0.
		clause := []sat.Lit{ls[i].Not()}
		for j := i + 1; j < len(ls); j++ {
			if c>>uint(j)&1 == 1 {
				clause = append(clause, ls[j].Not())
			}
		}
		e.S.AddClause(clause...)
	}
}

// Assert adds the boolean expression as a hard constraint, with cur
// and next resolving current- and next-state variables.
func (e *Encoder) Assert(ex *expr.Expr, cur, next *Frame) {
	e.S.AddClause(e.Lit(ex, cur, next))
}

// Lit compiles a boolean expression to a literal.
func (e *Encoder) Lit(ex *expr.Expr, cur, next *Frame) sat.Lit {
	if ex.Type().Kind != expr.KindBool {
		failf("Lit on %s-typed expression", ex.Type())
	}
	key := boolKey{ex, frameID(cur), frameID(next)}
	if l, ok := e.boolMemo[key]; ok {
		return l
	}
	l := e.compileBool(ex, cur, next)
	e.boolMemo[key] = l
	return l
}

func frameID(f *Frame) int {
	if f == nil {
		return 0
	}
	return f.id
}

func (e *Encoder) lookup(v *expr.Var, f *Frame) (bv, bool) {
	if f != nil {
		if b, ok := f.bits[v]; ok {
			return b, true
		}
	}
	if e.Params != nil {
		if b, ok := e.Params.bits[v]; ok {
			return b, true
		}
	}
	return bv{}, false
}

func (e *Encoder) varBits(v *expr.Var, f *Frame, what string) bv {
	b, ok := e.lookup(v, f)
	if !ok {
		panic(fmt.Sprintf("cnf: %s variable %s not bound in frame", what, v.Name))
	}
	return b
}

func (e *Encoder) compileBool(ex *expr.Expr, cur, next *Frame) sat.Lit {
	if e.Extern != nil {
		if l, ok := e.Extern(ex, cur, next); ok {
			return l
		}
	}
	switch ex.Op {
	case expr.OpConst:
		if ex.Val.B {
			return e.trueLit
		}
		return e.False()
	case expr.OpVar:
		return e.varBits(ex.V, cur, "current").Bits[0]
	case expr.OpNext:
		return e.varBits(ex.V, next, "next").Bits[0]
	case expr.OpNot:
		return e.Lit(ex.Args[0], cur, next).Not()
	case expr.OpAnd:
		ls := make([]sat.Lit, len(ex.Args))
		for i, a := range ex.Args {
			ls[i] = e.Lit(a, cur, next)
		}
		return e.And(ls...)
	case expr.OpOr:
		ls := make([]sat.Lit, len(ex.Args))
		for i, a := range ex.Args {
			ls[i] = e.Lit(a, cur, next)
		}
		return e.Or(ls...)
	case expr.OpImplies:
		return e.Or(e.Lit(ex.Args[0], cur, next).Not(), e.Lit(ex.Args[1], cur, next))
	case expr.OpIff:
		return e.Xor(e.Lit(ex.Args[0], cur, next), e.Lit(ex.Args[1], cur, next)).Not()
	case expr.OpXor:
		return e.Xor(e.Lit(ex.Args[0], cur, next), e.Lit(ex.Args[1], cur, next))
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		return e.compileCompare(ex, cur, next)
	}
	failf("cannot compile boolean op %v (expression %s)", ex.Op, ex)
	panic("unreachable")
}

func (e *Encoder) compileCompare(ex *expr.Expr, cur, next *Frame) sat.Lit {
	// Cardinality special case: Count(...) ⋈ const (either side).
	if l, ok := e.tryCardinality(ex, cur, next); ok {
		return l
	}
	return bitvec.Compare(e, ex.Op, e.BV(ex.Args[0], cur, next), e.BV(ex.Args[1], cur, next))
}

// --- integer expressions ---

// BV compiles a finite-domain expression to an offset bitvector.
func (e *Encoder) BV(ex *expr.Expr, cur, next *Frame) bv {
	key := boolKey{ex, frameID(cur), frameID(next)}
	if b, ok := e.bvMemo[key]; ok {
		return b
	}
	b := e.compileBV(ex, cur, next)
	e.bvMemo[key] = b
	return b
}

func (e *Encoder) compileBV(ex *expr.Expr, cur, next *Frame) bv {
	b, err := bitvec.Term(blaster{e, cur, next}, ex)
	if err != nil {
		failf("%v in the SAT encoding", err)
	}
	return b
}

// blaster binds the encoder to one (current, next) frame pair for
// bitvec.Term, which compiles operands back through Lit and BV.
type blaster struct {
	*Encoder
	cur, next *Frame
}

func (b blaster) Bool(ex *expr.Expr) sat.Lit { return b.Lit(ex, b.cur, b.next) }
func (b blaster) Int(ex *expr.Expr) bv       { return b.BV(ex, b.cur, b.next) }

func (b blaster) Leaf(ex *expr.Expr) bv {
	if ex.Op == expr.OpNext {
		return b.varBits(ex.V, b.next, "next")
	}
	return b.varBits(ex.V, b.cur, "current")
}

// --- gates ---

// And returns a literal equivalent to the conjunction of ls.
func (e *Encoder) And(ls ...sat.Lit) sat.Lit {
	out := make([]sat.Lit, 0, len(ls))
	for _, l := range ls {
		if l == e.trueLit {
			continue
		}
		if l == e.False() {
			return e.False()
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		return e.trueLit
	case 1:
		return out[0]
	}
	acc := out[0]
	for _, l := range out[1:] {
		acc = e.gate2('&', acc, l)
	}
	return acc
}

// Or returns a literal equivalent to the disjunction of ls.
func (e *Encoder) Or(ls ...sat.Lit) sat.Lit {
	neg := make([]sat.Lit, len(ls))
	for i, l := range ls {
		neg[i] = l.Not()
	}
	return e.And(neg...).Not()
}

// Xor returns a literal equivalent to a ⊕ b.
func (e *Encoder) Xor(a, b sat.Lit) sat.Lit {
	if a == e.trueLit {
		return b.Not()
	}
	if a == e.False() {
		return b
	}
	if b == e.trueLit {
		return a.Not()
	}
	if b == e.False() {
		return a
	}
	if a == b {
		return e.False()
	}
	if a == b.Not() {
		return e.trueLit
	}
	// Canonicalize: strip signs into a parity flip.
	flip := false
	if a.Sign() {
		a = a.Not()
		flip = !flip
	}
	if b.Sign() {
		b = b.Not()
		flip = !flip
	}
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: '^', a: a, b: b}
	g, ok := e.gateMemo[key]
	if !ok {
		g = sat.Pos(e.S.NewVar())
		e.S.AddClause(g.Not(), a, b)
		e.S.AddClause(g.Not(), a.Not(), b.Not())
		e.S.AddClause(g, a, b.Not())
		e.S.AddClause(g, a.Not(), b)
		e.gateMemo[key] = g
	}
	if flip {
		return g.Not()
	}
	return g
}

// Maj returns a literal equivalent to the majority of a, b, c.
func (e *Encoder) Maj(a, b, c sat.Lit) sat.Lit {
	// Simplify constants.
	switch {
	case a == e.trueLit:
		return e.Or(b, c)
	case a == e.False():
		return e.And(b, c)
	case b == e.trueLit:
		return e.Or(a, c)
	case b == e.False():
		return e.And(a, c)
	case c == e.trueLit:
		return e.Or(a, b)
	case c == e.False():
		return e.And(a, b)
	}
	ls := [3]sat.Lit{a, b, c}
	if ls[0] > ls[1] {
		ls[0], ls[1] = ls[1], ls[0]
	}
	if ls[1] > ls[2] {
		ls[1], ls[2] = ls[2], ls[1]
	}
	if ls[0] > ls[1] {
		ls[0], ls[1] = ls[1], ls[0]
	}
	key := gateKey{op: 'm', a: ls[0], b: ls[1], c: ls[2]}
	if g, ok := e.gateMemo[key]; ok {
		return g
	}
	g := sat.Pos(e.S.NewVar())
	a, b, c = ls[0], ls[1], ls[2]
	e.S.AddClause(g.Not(), a, b)
	e.S.AddClause(g.Not(), a, c)
	e.S.AddClause(g.Not(), b, c)
	e.S.AddClause(g, a.Not(), b.Not())
	e.S.AddClause(g, a.Not(), c.Not())
	e.S.AddClause(g, b.Not(), c.Not())
	e.gateMemo[key] = g
	return g
}

// Ite returns a literal equivalent to c ? t : f.
func (e *Encoder) Ite(c, t, f sat.Lit) sat.Lit {
	if c == e.trueLit {
		return t
	}
	if c == e.False() {
		return f
	}
	if t == f {
		return t
	}
	key := gateKey{op: 'i', a: c, b: t, c: f}
	if g, ok := e.gateMemo[key]; ok {
		return g
	}
	g := sat.Pos(e.S.NewVar())
	e.S.AddClause(g.Not(), c.Not(), t)
	e.S.AddClause(g.Not(), c, f)
	e.S.AddClause(g, c.Not(), t.Not())
	e.S.AddClause(g, c, f.Not())
	// Redundant but propagation-strengthening.
	e.S.AddClause(g.Not(), t, f)
	e.S.AddClause(g, t.Not(), f.Not())
	e.gateMemo[key] = g
	return g
}

func (e *Encoder) gate2(op byte, a, b sat.Lit) sat.Lit {
	if a > b {
		a, b = b, a
	}
	key := gateKey{op: op, a: a, b: b}
	if g, ok := e.gateMemo[key]; ok {
		return g
	}
	g := sat.Pos(e.S.NewVar())
	switch op {
	case '&':
		e.S.AddClause(g.Not(), a)
		e.S.AddClause(g.Not(), b)
		e.S.AddClause(g, a.Not(), b.Not())
	default:
		panic("cnf: unknown gate")
	}
	e.gateMemo[key] = g
	return g
}

// --- cardinality ---

// tryCardinality recognizes Count(bits) ⋈ constant comparisons and
// compiles them with a sequential counter.
func (e *Encoder) tryCardinality(ex *expr.Expr, cur, next *Frame) (sat.Lit, bool) {
	if e.NoSeqCounter {
		return 0, false
	}
	a, b := ex.Args[0], ex.Args[1]
	op := ex.Op
	var cnt *expr.Expr
	var k int64
	switch {
	case a.Op == expr.OpCount && b.Op == expr.OpConst && b.Val.Kind == expr.KindInt:
		cnt, k = a, b.Val.I
	case b.Op == expr.OpCount && a.Op == expr.OpConst && a.Val.Kind == expr.KindInt:
		cnt, k = b, a.Val.I
		// Mirror the comparison: const ⋈ count  ==>  count ⋈' const.
		switch op {
		case expr.OpLt:
			op = expr.OpGt
		case expr.OpLe:
			op = expr.OpGe
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		}
	default:
		return 0, false
	}
	n := int64(len(cnt.Args))
	// Normalize to atLeast(j) primitives.
	atLeast := func(j int64) sat.Lit {
		if j <= 0 {
			return e.trueLit
		}
		if j > n {
			return e.False()
		}
		outs := e.seqCounter(cnt, cur, next, int(j))
		return outs[j-1]
	}
	switch op {
	case expr.OpLe: // count <= k  ==  !atLeast(k+1)
		return atLeast(k + 1).Not(), true
	case expr.OpLt:
		return atLeast(k).Not(), true
	case expr.OpGe:
		return atLeast(k), true
	case expr.OpGt:
		return atLeast(k + 1), true
	case expr.OpEq:
		return e.And(atLeast(k), atLeast(k+1).Not()), true
	case expr.OpNe:
		return e.And(atLeast(k), atLeast(k+1).Not()).Not(), true
	}
	return 0, false
}

// seqCounter builds sequential-counter outputs out[j-1] ("at least j of
// the count's arguments are true") for j = 1..maxJ, memoized per
// (count node, frames, maxJ).
func (e *Encoder) seqCounter(cnt *expr.Expr, cur, next *Frame, maxJ int) []sat.Lit {
	key := cardKey{cnt, frameID(cur), frameID(next), maxJ}
	if outs, ok := e.cardMemo[key]; ok {
		return outs
	}
	n := len(cnt.Args)
	xs := make([]sat.Lit, n)
	for i, a := range cnt.Args {
		xs[i] = e.Lit(a, cur, next)
	}
	// s[j-1] after processing i bits == at least j of the first i true.
	row := make([]sat.Lit, maxJ)
	for j := range row {
		row[j] = e.False()
	}
	for i := 0; i < n; i++ {
		newRow := make([]sat.Lit, maxJ)
		for j := 0; j < maxJ; j++ {
			prev := e.trueLit
			if j > 0 {
				prev = row[j-1]
			}
			// newRow[j] = row[j] | (x_i & prev)
			newRow[j] = e.Or(row[j], e.And(xs[i], prev))
		}
		row = newRow
	}
	e.cardMemo[key] = row
	return row
}

// --- model decoding ---

// Model decodes variable v's value in frame f from the solver's model
// (after a Sat result). Unassigned bits default to 0.
func (e *Encoder) Model(f *Frame, v *expr.Var) expr.Value {
	b, ok := e.lookup(v, f)
	if !ok {
		panic(fmt.Sprintf("cnf: Model of unbound variable %s", v.Name))
	}
	var u int64
	for i, l := range b.Bits {
		if e.S.ValueLit(l) == sat.TrueV {
			u |= 1 << uint(i)
		}
	}
	val := b.Off + u
	switch v.T.Kind {
	case expr.KindBool:
		return expr.BoolValue(val != 0)
	case expr.KindInt:
		return expr.IntValue(val)
	case expr.KindEnum:
		return expr.EnumValue(v.T.Values[val])
	}
	panic("cnf: Model of non-finite variable " + v.Name)
}

// EqFrames returns a literal true iff every variable common to both
// frames has equal value — used for lasso loop closure in BMC.
func (e *Encoder) EqFrames(a, b *Frame) sat.Lit {
	var conj []sat.Lit
	for _, v := range a.vars {
		bb, ok := b.bits[v]
		if !ok {
			continue
		}
		conj = append(conj, bitvec.Eq(e, a.bits[v], bb))
	}
	return e.And(conj...)
}
