package bitvec

import (
	"errors"
	"fmt"

	"verdict/internal/expr"
)

// Blaster is a backend that bit-blasts expr terms: its gates, its own
// memoized compilers for operands, and its variable lookup. Term
// recurses only through these, so each backend keeps its memo tables,
// frames, and error reporting.
type Blaster[B any] interface {
	Algebra[B]
	// Bool compiles a boolean operand to one bit.
	Bool(ex *expr.Expr) B
	// Int compiles a finite-domain operand.
	Int(ex *expr.Expr) Vec[B]
	// Leaf is the bit-vector of an OpVar or OpNext leaf.
	Leaf(ex *expr.Expr) Vec[B]
}

// errMulVars reports a variable×variable product.
var errMulVars = errors.New("variable*variable multiplication is not supported")

// Term bit-blasts one finite-domain term (integer, enum, or a boolean
// used as 0/1). The error names a term no backend encodes: a
// variable×variable product or an operator without a bit-vector
// meaning.
func Term[B any](bl Blaster[B], ex *expr.Expr) (Vec[B], error) {
	switch ex.Op {
	case expr.OpConst:
		switch ex.Val.Kind {
		case expr.KindInt:
			return Const[B](ex.Val.I), nil
		case expr.KindEnum:
			return Const[B](int64(ex.Type().EnumIndex(ex.Val.Sym))), nil
		case expr.KindBool:
			if ex.Val.B {
				return Bit(bl.True()), nil
			}
			return Vec[B]{}, nil
		}
	case expr.OpVar, expr.OpNext:
		return bl.Leaf(ex), nil
	case expr.OpAdd:
		acc := bl.Int(ex.Args[0])
		for _, a := range ex.Args[1:] {
			acc = Add(bl, acc, bl.Int(a))
		}
		return acc, nil
	case expr.OpSub:
		return Add(bl, bl.Int(ex.Args[0]), Neg(bl, bl.Int(ex.Args[1]))), nil
	case expr.OpNeg:
		return Neg(bl, bl.Int(ex.Args[0])), nil
	case expr.OpMul:
		acc := bl.Int(ex.Args[0])
		for _, a := range ex.Args[1:] {
			var ok bool
			if acc, ok = Mul(bl, acc, bl.Int(a)); !ok {
				return Vec[B]{}, errMulVars
			}
		}
		return acc, nil
	case expr.OpIte:
		c := bl.Bool(ex.Args[0])
		return Ite(bl, c, bl.Int(ex.Args[1]), bl.Int(ex.Args[2])), nil
	case expr.OpCount:
		bits := make([]B, len(ex.Args))
		for i, a := range ex.Args {
			bits[i] = bl.Bool(a)
		}
		return Popcount(bl, bits), nil
	}
	if ex.Type().Kind == expr.KindBool {
		// A boolean used as 0/1, e.g. an Ite branch.
		return Bit(bl.Bool(ex)), nil
	}
	return Vec[B]{}, fmt.Errorf("cannot bit-blast op %v (%s)", ex.Op, ex)
}

// Compare is value(a) op value(b) for a comparison operator.
func Compare[B any](alg Algebra[B], op expr.Op, a, b Vec[B]) B {
	switch op {
	case expr.OpEq:
		return Eq(alg, a, b)
	case expr.OpNe:
		return alg.Not(Eq(alg, a, b))
	case expr.OpLe:
		return Le(alg, a, b)
	case expr.OpLt:
		return alg.Not(Le(alg, b, a))
	case expr.OpGe:
		return Le(alg, b, a)
	case expr.OpGt:
		return alg.Not(Le(alg, a, b))
	}
	panic(fmt.Sprintf("bitvec: Compare on non-comparison op %v", op))
}
