package bitvec

import (
	"testing"

	"verdict/internal/expr"
)

// boolAlg is the algebra over plain booleans: every Vec[bool] is a
// concrete integer, so each operation can be checked against int64
// arithmetic.
type boolAlg struct{}

func (boolAlg) True() bool         { return true }
func (boolAlg) False() bool        { return false }
func (boolAlg) Not(a bool) bool    { return !a }
func (boolAlg) Xor(a, b bool) bool { return a != b }
func (boolAlg) Maj(a, b, c bool) bool {
	return a && b || a && c || b && c
}
func (boolAlg) Ite(c, t, f bool) bool {
	if c {
		return t
	}
	return f
}

func (boolAlg) And(xs ...bool) bool {
	for _, x := range xs {
		if !x {
			return false
		}
	}
	return true
}

func (boolAlg) Or(xs ...bool) bool {
	for _, x := range xs {
		if x {
			return true
		}
	}
	return false
}

func value(v Vec[bool]) int64 {
	u := v.Off
	for i, b := range v.Bits {
		if b {
			u += 1 << uint(i)
		}
	}
	return u
}

func unsigned(bits []bool) uint64 {
	return uint64(value(Vec[bool]{Bits: bits}))
}

// patterns returns every bit slice of width w.
func patterns(w int) [][]bool {
	var out [][]bool
	for m := 0; m < 1<<uint(w); m++ {
		bits := make([]bool, w)
		for i := range bits {
			bits[i] = m>>uint(i)&1 == 1
		}
		out = append(out, bits)
	}
	return out
}

// vectors returns every Vec[bool] of width 0..4 with offset in [-6, 6]:
// the same value spelled many ways, including with leading zeros.
func vectors() []Vec[bool] {
	var out []Vec[bool]
	for w := 0; w <= 4; w++ {
		for _, bits := range patterns(w) {
			for off := int64(-6); off <= 6; off++ {
				out = append(out, Vec[bool]{Bits: bits, Off: off})
			}
		}
	}
	return out
}

func TestUnaryOpsExhaustive(t *testing.T) {
	var alg boolAlg
	for _, a := range vectors() {
		if got, want := value(Neg[bool](alg, a)), -value(a); got != want {
			t.Fatalf("Neg(%v) = %d, want %d", a, got, want)
		}
		for k := int64(-6); k <= 6; k++ {
			for _, swap := range []bool{false, true} {
				x, y := a, Const[bool](k)
				if swap {
					x, y = y, x
				}
				p, ok := Mul[bool](alg, x, y)
				if !ok {
					t.Fatalf("Mul(%v, %v) rejected a constant factor", x, y)
				}
				if got, want := value(p), value(a)*k; got != want {
					t.Fatalf("Mul(%v, %v) = %d, want %d", x, y, got, want)
				}
			}
		}
	}
}

func TestBinaryOpsExhaustive(t *testing.T) {
	var alg boolAlg
	vs := vectors()
	cmp := map[expr.Op]func(a, b int64) bool{
		expr.OpEq: func(a, b int64) bool { return a == b },
		expr.OpNe: func(a, b int64) bool { return a != b },
		expr.OpLt: func(a, b int64) bool { return a < b },
		expr.OpLe: func(a, b int64) bool { return a <= b },
		expr.OpGt: func(a, b int64) bool { return a > b },
		expr.OpGe: func(a, b int64) bool { return a >= b },
	}
	for _, a := range vs {
		for _, b := range vs {
			va, vb := value(a), value(b)
			if got := value(Add[bool](alg, a, b)); got != va+vb {
				t.Fatalf("Add(%v, %v) = %d, want %d", a, b, got, va+vb)
			}
			for _, c := range []bool{false, true} {
				want := vb
				if c {
					want = va
				}
				if got := value(Ite[bool](alg, c, a, b)); got != want {
					t.Fatalf("Ite(%v, %v, %v) = %d, want %d", c, a, b, got, want)
				}
			}
			for op, f := range cmp {
				if got := Compare[bool](alg, op, a, b); got != f(va, vb) {
					t.Fatalf("Compare(%v, %v, %v) = %v, want %v", op, a, b, got, f(va, vb))
				}
			}
			if _, ok := Mul[bool](alg, a, b); ok != (len(a.Bits) == 0 || len(b.Bits) == 0) {
				t.Fatalf("Mul(%v, %v): ok = %v", a, b, ok)
			}
		}
	}
}

func TestConstComparisonsAndPopcount(t *testing.T) {
	var alg boolAlg
	for w := 0; w <= 6; w++ {
		for _, bits := range patterns(w) {
			u := unsigned(bits)
			for c := uint64(0); c <= 70; c++ {
				if got := LeConst[bool](alg, bits, c); got != (u <= c) {
					t.Fatalf("LeConst(%v, %d) = %v", bits, c, got)
				}
				if got := EqConst[bool](alg, bits, c); got != (u == c) {
					t.Fatalf("EqConst(%v, %d) = %v", bits, c, got)
				}
			}
			n := int64(0)
			for _, b := range bits {
				if b {
					n++
				}
			}
			if got := value(Popcount[bool](alg, bits)); got != n {
				t.Fatalf("Popcount(%v) = %d, want %d", bits, got, n)
			}
		}
	}
}

// evalBlaster bit-blasts terms over boolAlg under one assignment:
// leaves are the assigned values, boolean operands are evaluated
// directly, and integer operands recurse through Term.
type evalBlaster struct {
	boolAlg
	t   *testing.T
	env expr.MapEnv
}

func (b evalBlaster) Bool(ex *expr.Expr) bool {
	v, err := expr.EvalBool(ex, b.env, nil)
	if err != nil {
		b.t.Fatal(err)
	}
	return v
}

func (b evalBlaster) Int(ex *expr.Expr) Vec[bool] {
	v, err := Term[bool](b, ex)
	if err != nil {
		b.t.Fatal(err)
	}
	return v
}

func (b evalBlaster) Leaf(ex *expr.Expr) Vec[bool] {
	val := b.env[ex.V]
	if val.Kind == expr.KindBool {
		return Bit(val.B)
	}
	// Spell the value with the variable's own offset, as the backends do.
	lo := ex.V.T.Lo
	u := val.I - lo
	return Vec[bool]{Bits: []bool{u&1 == 1, u&2 == 2, u&4 == 4}, Off: lo}
}

// TestTermAgainstEval bit-blasts integer terms over every assignment of
// x ∈ [-3, 4], y ∈ [2, 6], a boolean b and an enum c, comparing with
// the evaluator.
func TestTermAgainstEval(t *testing.T) {
	x := &expr.Var{Name: "x", T: expr.Int(-3, 4)}
	y := &expr.Var{Name: "y", T: expr.Int(2, 6)}
	b := &expr.Var{Name: "b", T: expr.Bool()}
	c := &expr.Var{Name: "c", T: expr.Enum("red", "green")}
	X, Y, B := x.Ref(), y.Ref(), b.Ref()
	terms := []*expr.Expr{
		expr.Add(X, Y, expr.IntConst(-5)),
		expr.Sub(X, Y),
		expr.Neg(X),
		expr.Mul(X, expr.IntConst(-3)),
		expr.Mul(expr.IntConst(5), Y, expr.IntConst(-1)),
		expr.Ite(B, X, Y),
		expr.Ite(expr.Lt(X, Y), expr.IntConst(-4), expr.Add(Y, expr.IntConst(3))),
		expr.Count(B, expr.Ge(X, expr.IntConst(0)), expr.Eq(X, Y), expr.Eq(c.Ref(), expr.EnumConst(c.T, "green"))),
		expr.Add(expr.Ite(B, expr.IntConst(1), expr.IntConst(0)), expr.Mul(expr.IntConst(2), X)),
	}
	for xv := int64(-3); xv <= 4; xv++ {
		for yv := int64(2); yv <= 6; yv++ {
			for _, bv := range []bool{false, true} {
				for _, cv := range []string{"red", "green"} {
					env := expr.MapEnv{x: expr.IntValue(xv), y: expr.IntValue(yv),
						b: expr.BoolValue(bv), c: expr.EnumValue(cv)}
					bl := evalBlaster{t: t, env: env}
					for _, term := range terms {
						want, err := expr.Eval(term, env, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got := value(bl.Int(term)); got != want.I {
							t.Fatalf("%s at x=%d y=%d b=%v c=%s: got %d, want %d", term, xv, yv, bv, cv, got, want.I)
						}
					}
				}
			}
		}
	}
}

func TestTermRejects(t *testing.T) {
	x := &expr.Var{Name: "x", T: expr.Int(0, 3)}
	y := &expr.Var{Name: "y", T: expr.Int(0, 3)}
	bl := evalBlaster{t: t, env: expr.MapEnv{x: expr.IntValue(1), y: expr.IntValue(2)}}
	if _, err := Term[bool](bl, expr.Mul(x.Ref(), y.Ref())); err == nil {
		t.Fatal("variable*variable product was bit-blasted")
	}
}
