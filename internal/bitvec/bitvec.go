// Package bitvec is the offset-bit-vector arithmetic both symbolic
// backends bit-blast finite-domain terms into. A Vec is a vector of
// bits plus a constant offset, value = Off + Σ Bits[i]·2^i (LSB
// first), so a variable over [lo, hi] needs only ⌈log2(hi-lo+1)⌉
// bits whatever lo is.
//
// Every operation is written once against Algebra, a small boolean
// algebra over the bit type: the SAT backend instantiates it with
// Tseitin-encoded CNF literals (internal/cnf), the BDD backend with
// BDD nodes (internal/mc). The two encodings therefore agree by
// construction. Each operation issues its gate calls in a fixed order,
// so a deterministic algebra yields a deterministic encoding.
package bitvec

// Algebra is the set of gates the arithmetic is built from.
// Implementations may simplify constants and share structure.
type Algebra[B any] interface {
	True() B
	False() B
	Not(a B) B
	And(xs ...B) B
	Or(xs ...B) B
	Xor(a, b B) B
	// Maj is the majority of three bits: the carry of a full adder.
	Maj(a, b, c B) B
	// Ite is c ? t : f.
	Ite(c, t, f B) B
}

// Vec is an offset bit-vector: value = Off + Σ Bits[i]·2^i.
type Vec[B any] struct {
	Bits []B // LSB first
	Off  int64
}

// Const is the constant k, which needs no bits.
func Const[B any](k int64) Vec[B] { return Vec[B]{Off: k} }

// Bit is the 0/1 value of one bit.
func Bit[B any](b B) Vec[B] { return Vec[B]{Bits: []B{b}} }

// span is the largest unsigned value w bits hold, 2^w - 1.
func span(w int) int64 { return int64(1)<<uint(w) - 1 }

func bitAt[B any](alg Algebra[B], a Vec[B], i int) B {
	if i < len(a.Bits) {
		return a.Bits[i]
	}
	return alg.False()
}

// Neg is -a: -(Off + U) where U has width w is (-Off - (2^w - 1)) + ~U,
// and ~U is bitwise negation.
func Neg[B any](alg Algebra[B], a Vec[B]) Vec[B] {
	bs := make([]B, len(a.Bits))
	for i, b := range a.Bits {
		bs[i] = alg.Not(b)
	}
	return Vec[B]{Bits: bs, Off: -a.Off - span(len(a.Bits))}
}

// Add is a + b by a ripple-carry adder one bit wider than the wider
// operand.
func Add[B any](alg Algebra[B], a, b Vec[B]) Vec[B] {
	if len(a.Bits) == 0 {
		return Vec[B]{Bits: b.Bits, Off: a.Off + b.Off}
	}
	if len(b.Bits) == 0 {
		return Vec[B]{Bits: a.Bits, Off: a.Off + b.Off}
	}
	w := max(len(a.Bits), len(b.Bits))
	sum := make([]B, 0, w+1)
	carry := alg.False()
	for i := 0; i < w; i++ {
		ai, bi := bitAt(alg, a, i), bitAt(alg, b, i)
		sum = append(sum, alg.Xor(alg.Xor(ai, bi), carry))
		carry = alg.Maj(ai, bi, carry)
	}
	return Vec[B]{Bits: append(sum, carry), Off: a.Off + b.Off}
}

// Mul is a·b when at least one side is a constant (has no bits): a sum
// of shifted copies of the other side. ok is false for a
// variable×variable product, which no backend encodes — finite-domain
// models never need it, and real-valued ones go through SMT.
func Mul[B any](alg Algebra[B], a, b Vec[B]) (v Vec[B], ok bool) {
	if len(a.Bits) > 0 && len(b.Bits) > 0 {
		return Vec[B]{}, false
	}
	if len(a.Bits) == 0 {
		a, b = b, a
	}
	// b is the constant: a·k = U_a·k + a.Off·k.
	k := b.Off
	if k == 0 {
		return Vec[B]{}, true
	}
	neg := k < 0
	if neg {
		k = -k
	}
	var acc Vec[B]
	first := true
	for i := 0; i < 63 && k>>uint(i) != 0; i++ {
		if k>>uint(i)&1 == 0 {
			continue
		}
		sh := shift(alg, a.Bits, i)
		if first {
			acc, first = sh, false
		} else {
			acc = Add(alg, acc, sh)
		}
	}
	if neg {
		acc = Neg(alg, acc)
	}
	acc.Off += a.Off * b.Off
	return acc, true
}

// shift is the unsigned value of bits times 2^n.
func shift[B any](alg Algebra[B], bits []B, n int) Vec[B] {
	bs := make([]B, n+len(bits))
	for i := 0; i < n; i++ {
		bs[i] = alg.False()
	}
	copy(bs[n:], bits)
	return Vec[B]{Bits: bs}
}

// Ite is c ? a : b, bit by bit once both sides share the lower offset.
func Ite[B any](alg Algebra[B], c B, a, b Vec[B]) Vec[B] {
	if a.Off != b.Off {
		lo := min(a.Off, b.Off)
		a, b = rebase(alg, a, lo), rebase(alg, b, lo)
	}
	bs := make([]B, max(len(a.Bits), len(b.Bits)))
	for i := range bs {
		bs[i] = alg.Ite(c, bitAt(alg, a, i), bitAt(alg, b, i))
	}
	return Vec[B]{Bits: bs, Off: a.Off}
}

// rebase rewrites a with the offset off <= a.Off, adding the
// difference into the bits.
func rebase[B any](alg Algebra[B], a Vec[B], off int64) Vec[B] {
	d := a.Off - off
	if d == 0 {
		return a
	}
	r := Add(alg, Vec[B]{Bits: a.Bits}, constBits(alg, d))
	r.Off = off
	return r
}

// constBits is k >= 0 spelled in constant bits.
func constBits[B any](alg Algebra[B], k int64) Vec[B] {
	var bs []B
	for i := 0; i < 63 && k>>uint(i) != 0; i++ {
		if k>>uint(i)&1 == 1 {
			bs = append(bs, alg.True())
		} else {
			bs = append(bs, alg.False())
		}
	}
	return Vec[B]{Bits: bs}
}

// Eq is value(a) == value(b).
func Eq[B any](alg Algebra[B], a, b Vec[B]) B {
	sum, c, ok := diff(alg, a, b)
	if !ok {
		return alg.False()
	}
	return EqConst(alg, sum, uint64(c))
}

// Le is value(a) <= value(b).
func Le[B any](alg Algebra[B], a, b Vec[B]) B {
	sum, c, ok := diff(alg, a, b)
	if !ok {
		return alg.False()
	}
	return LeConst(alg, sum, uint64(c))
}

// diff reduces a comparison to an unsigned one: with wb = len(b.Bits),
// a ⋈ b iff U_a + ~U_b ⋈ C where C = b.Off - a.Off + 2^wb - 1, since
// ~U_b = 2^wb - 1 - U_b. It returns the sum's bits and C; ok=false
// means C < 0, so both a <= b and a == b are statically false.
func diff[B any](alg Algebra[B], a, b Vec[B]) (sum []B, c int64, ok bool) {
	nb := Neg(alg, b)
	c = b.Off - a.Off + span(len(b.Bits))
	if c < 0 {
		return nil, 0, false
	}
	return Add(alg, Vec[B]{Bits: a.Bits}, Vec[B]{Bits: nb.Bits}).Bits, c, true
}

// LeConst is unsigned(bits) <= c, folded from the least significant
// bit up.
func LeConst[B any](alg Algebra[B], bits []B, c uint64) B {
	if len(bits) == 0 || c >= 1<<uint(len(bits))-1 {
		return alg.True()
	}
	acc := alg.True()
	for i, b := range bits {
		if c>>uint(i)&1 == 1 {
			acc = alg.Or(alg.Not(b), acc)
		} else {
			acc = alg.And(alg.Not(b), acc)
		}
	}
	return acc
}

// EqConst is unsigned(bits) == c.
func EqConst[B any](alg Algebra[B], bits []B, c uint64) B {
	if c >= 1<<uint(len(bits)) {
		return alg.False()
	}
	match := make([]B, len(bits))
	for i, b := range bits {
		if c>>uint(i)&1 == 1 {
			match[i] = b
		} else {
			match[i] = alg.Not(b)
		}
	}
	return alg.And(match...)
}

// Popcount is the number of true bits, summed by a balanced adder
// tree.
func Popcount[B any](alg Algebra[B], bits []B) Vec[B] {
	if len(bits) == 0 {
		return Vec[B]{}
	}
	vecs := make([]Vec[B], len(bits))
	for i, b := range bits {
		vecs[i] = Bit(b)
	}
	for len(vecs) > 1 {
		var next []Vec[B]
		for i := 0; i+1 < len(vecs); i += 2 {
			next = append(next, Add(alg, vecs[i], vecs[i+1]))
		}
		if len(vecs)%2 == 1 {
			next = append(next, vecs[len(vecs)-1])
		}
		vecs = next
	}
	return vecs[0]
}
