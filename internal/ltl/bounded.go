package ltl

import (
	"fmt"

	"verdict/internal/cnf"
	"verdict/internal/sat"
)

// BoundedEncoder compiles the bounded (lasso) semantics of LTL over an
// unrolled path s_0 .. s_k. Frames[i] binds the state variables of
// step i. Formulas must be in negation normal form (see NNF); only
// atoms may carry negations.
//
// Two encodings exist: without a loop (finite-prefix witness — sound
// for reachability-style formulas, conservative for R/G) and with a
// back-loop s_{k+1} = s_l, which makes the path genuinely infinite and
// the semantics exact. The bounded model checker tries no-loop plus
// every loop index per depth.
type BoundedEncoder struct {
	Enc    *cnf.Encoder
	Frames []*cnf.Frame

	memo map[encKey]sat.Lit
}

type encKey struct {
	f    *Formula
	i, l int // l = -1 encodes the no-loop case
}

// NewBoundedEncoder wraps enc and the per-step frames.
func NewBoundedEncoder(enc *cnf.Encoder, frames []*cnf.Frame) *BoundedEncoder {
	return &BoundedEncoder{Enc: enc, Frames: frames, memo: make(map[encKey]sat.Lit)}
}

func (b *BoundedEncoder) k() int { return len(b.Frames) - 1 }

// EncodeNoLoop returns a literal implying f holds on the unrolled
// prefix under the conservative no-loop bounded semantics.
func (b *BoundedEncoder) EncodeNoLoop(f *Formula) sat.Lit {
	return b.encode(f, 0, -1)
}

// EncodeLoop returns a literal equivalent to f holding on the infinite
// lasso path that follows frames 0..k and loops from k back to l. The
// caller must separately assert the loop-closure constraint
// (state_k+1 == state_l via the transition relation).
func (b *BoundedEncoder) EncodeLoop(f *Formula, l int) sat.Lit {
	if l < 0 || l > b.k() {
		panic(fmt.Sprintf("ltl: loop index %d out of range [0,%d]", l, b.k()))
	}
	return b.encode(f, 0, l)
}

func (b *BoundedEncoder) encode(f *Formula, i, l int) sat.Lit {
	key := encKey{f, i, l}
	if lit, ok := b.memo[key]; ok {
		return lit
	}
	lit := b.compute(f, i, l)
	b.memo[key] = lit
	return lit
}

func (b *BoundedEncoder) compute(f *Formula, i, l int) sat.Lit {
	k := b.k()
	switch f.Kind {
	case KindAtom:
		return b.Enc.Lit(f.Atom, b.Frames[i], nil)
	case KindNot:
		// NNF guarantees the operand is an atom; in the loop case
		// literal negation is exact anyway.
		return b.encode(f.L, i, l).Not()
	case KindAnd:
		return b.Enc.And(b.encode(f.L, i, l), b.encode(f.R, i, l))
	case KindOr:
		return b.Enc.Or(b.encode(f.L, i, l), b.encode(f.R, i, l))
	case KindX:
		if i < k {
			return b.encode(f.L, i+1, l)
		}
		if l < 0 {
			return b.Enc.False()
		}
		return b.encode(f.L, l, l)
	case KindF:
		start := i
		if l >= 0 && l < start {
			start = l
		}
		var disj []sat.Lit
		for j := start; j <= k; j++ {
			disj = append(disj, b.encode(f.L, j, l))
		}
		return b.Enc.Or(disj...)
	case KindG:
		if l < 0 {
			return b.Enc.False() // no finite witness for G
		}
		// On a lasso, G f = f at every position from min(i,l) on.
		start := i
		if l < start {
			start = l
		}
		var conj []sat.Lit
		for j := start; j <= k; j++ {
			conj = append(conj, b.encode(f.L, j, l))
		}
		return b.Enc.And(conj...)
	case KindU:
		return b.until(
			func(j int) sat.Lit { return b.encode(f.L, j, l) },
			func(j int) sat.Lit { return b.encode(f.R, j, l) },
			i, l)
	case KindR:
		if l < 0 {
			// Conservative: require an explicit release point.
			var disj []sat.Lit
			for j := i; j <= k; j++ {
				var conj []sat.Lit
				for t := i; t <= j; t++ {
					conj = append(conj, b.encode(f.R, t, l))
				}
				conj = append(conj, b.encode(f.L, j, l))
				disj = append(disj, b.Enc.And(conj...))
			}
			return b.Enc.Or(disj...)
		}
		// Exact dual on the infinite lasso: f R g = ¬(¬f U ¬g).
		return b.until(
			func(j int) sat.Lit { return b.encode(f.L, j, l).Not() },
			func(j int) sat.Lit { return b.encode(f.R, j, l).Not() },
			i, l).Not()
	}
	panic("ltl: bad kind in bounded encoding")
}

// until encodes the bounded semantics of (fL U fR) at position i.
func (b *BoundedEncoder) until(fl, fr func(int) sat.Lit, i, l int) sat.Lit {
	k := b.k()
	var disj []sat.Lit
	// Witness within [i, k].
	for j := i; j <= k; j++ {
		conj := []sat.Lit{fr(j)}
		for t := i; t < j; t++ {
			conj = append(conj, fl(t))
		}
		disj = append(disj, b.Enc.And(conj...))
	}
	// Witness after wrapping through the loop: positions l..i-1.
	if l >= 0 {
		for j := l; j < i; j++ {
			conj := []sat.Lit{fr(j)}
			for t := i; t <= k; t++ {
				conj = append(conj, fl(t))
			}
			for t := l; t < j; t++ {
				conj = append(conj, fl(t))
			}
			disj = append(disj, b.Enc.And(conj...))
		}
	}
	return b.Enc.Or(disj...)
}
