package cnf_test

import (
	"testing"

	"verdict/internal/cnf"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/models/rollout"
	"verdict/internal/sat"
	"verdict/internal/topo"
	"verdict/internal/ts"
)

// BenchmarkAblationCardinality measures the sequential-counter
// cardinality encoding against the adder-tree fallback
// (Encoder.NoSeqCounter) on the rollout model's "count(failed links)
// <= k" constraints: an incremental BMC search for the fattree4
// violation.
func BenchmarkAblationCardinality(b *testing.B) {
	for _, mode := range []struct {
		name  string
		noSeq bool
	}{{"seq-counter", false}, {"adder-tree", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := rollout.Build(rollout.Config{Topo: topo.FatTree(4), P: 1, K: 2, M: 1})
				if err != nil {
					b.Fatal(err)
				}
				p, ok := ltl.IsSafetyInvariant(m.Property)
				if !ok {
					b.Fatal("rollout property is not a safety invariant")
				}
				if k := violationDepth(m.Sys, expr.Not(p), mode.noSeq, 10); k < 0 {
					b.Fatal("no violation within depth 10")
				}
			}
		})
	}
}

// violationDepth returns the first depth <= maxDepth at which a state
// satisfying bad is reachable, or -1.
func violationDepth(sys *ts.System, bad *expr.Expr, noSeq bool, maxDepth int) int {
	s := sat.New()
	enc := cnf.NewEncoder(s)
	enc.NoSeqCounter = noSeq
	enc.Params = enc.NewFrame(sys.Params())
	frames := []*cnf.Frame{enc.NewFrame(sys.Vars())}
	enc.Assert(sys.InitExpr(), frames[0], nil)
	for k := 0; k <= maxDepth; k++ {
		if k > 0 {
			frames = append(frames, enc.NewFrame(sys.Vars()))
			enc.Assert(sys.TransExpr(), frames[k-1], frames[k])
		}
		enc.Assert(sys.InvarExpr(), frames[k], nil)
		if s.Solve(enc.Lit(bad, frames[k], nil)) == sat.Sat {
			return k
		}
	}
	return -1
}
