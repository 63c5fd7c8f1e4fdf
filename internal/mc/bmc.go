package mc

import (
	"fmt"
	"time"

	"verdict/internal/cnf"
	"verdict/internal/ltl"
	"verdict/internal/sat"
	"verdict/internal/ts"
)

// BMC searches for a counterexample to phi by unrolling the transition
// relation to increasing depths, trying a finite-prefix witness and
// every lasso loop-back index at each depth. Finite systems use the
// pure SAT pipeline; systems with real-valued variables automatically
// go through the lazy SMT(LRA) context. BMC never returns Holds — use
// KInduction or the BDD engine to prove properties.
//
// For pure co-safety negations (every witness is a finite prefix —
// notably safety invariants G(p)) the unrolling is incremental: depth
// k+1 extends depth k's solver through the blast layer, reusing its
// clause database and heuristics; lasso searches rebuild per depth.
// Under the portfolio's cooperation bus, BMC
// additionally publishes "no counterexample below k" bounds after each
// clean depth and skips depths another engine has already proven
// clean.
func BMC(sys *ts.System, phi *ltl.Formula, opts Options) (res *Result, err error) {
	// The CNF encoder reports unsupported input (e.g. var*var
	// multiplication in TRANS) by panicking with a typed CompileError;
	// this API boundary turns it back into an ordinary error.
	defer recoverCompile(&err)
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	neg := ltl.Not(phi).NNF()
	engine := "bmc"
	if !sys.Finite() {
		engine = "smt-bmc"
	}
	incremental := opts.incrementalBMC(neg)
	// Depth bounds are exchangeable over the bus only for safety
	// invariants, where BMC's depth-k queries and k-induction's base
	// cases cover exactly the same witnesses (an init path ending in a
	// ¬p state).
	coop := opts.coop
	if _, isInv := ltl.IsSafetyInvariant(phi); !isInv {
		coop = nil
	}

	var u *unroller
	stats := &Stats{}
	// finish folds the live solver's counters in and attaches the
	// stats; every rebuilt-and-discarded solver was folded in already.
	finish := func(r *Result) *Result {
		if u != nil {
			stats.addSolver(u.sats)
			stats.IncrementalReuses += u.reuses
		}
		r.Stats = stats
		return r
	}
	for k := 0; k <= opts.maxDepth(); k++ {
		depthStart := time.Now()
		if opts.expired(start) {
			return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.stopNote()}), nil
		}
		var err error
		if u == nil || !incremental {
			if u != nil {
				stats.addSolver(u.sats)
			}
			u, err = newUnroller(sys, k, opts, start)
		} else {
			err = u.extend()
		}
		if err != nil {
			return nil, err
		}
		if coop.bound() > k {
			// Another engine already proved this depth clean; keep the
			// unrolling in sync and move on.
			stats.DepthTime = append(stats.DepthTime, time.Since(depthStart))
			continue
		}
		// No-loop witness.
		st := u.solve(u.benc.EncodeNoLoop(neg))
		if st == sat.Sat {
			return finish(&Result{
				Status:  Violated,
				Trace:   u.extractTrace(-1),
				Engine:  engine,
				Depth:   k,
				Elapsed: time.Since(start),
			}), nil
		}
		if st == sat.Unknown {
			return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.solverNote(u.sats, start)}), nil
		}
		// Lasso witnesses, one loop index at a time. Pure co-safety
		// witnesses (no G/R in the negated NNF) are always caught by a
		// finite prefix, so the loop search is skipped for them.
		if !coSafety(neg) {
			for l := 0; l <= k; l++ {
				if opts.expired(start) {
					return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.stopNote()}), nil
				}
				w := u.benc.EncodeLoop(neg, l)
				st := u.solve(w, u.loopLit(l))
				if st == sat.Sat {
					return finish(&Result{
						Status:  Violated,
						Trace:   u.extractTrace(l),
						Engine:  engine,
						Depth:   k,
						Elapsed: time.Since(start),
					}), nil
				}
				if st == sat.Unknown {
					return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.solverNote(u.sats, start)}), nil
				}
			}
		}
		// Depth k is clean; depths 0..k-1 were clean before (we iterate
		// from 0 and every skip was covered by a published bound), so
		// no counterexample exists below k+1.
		coop.publishBound(k + 1)
		stats.DepthTime = append(stats.DepthTime, time.Since(depthStart))
	}
	return finish(&Result{
		Status:  Unknown,
		Engine:  engine,
		Depth:   opts.maxDepth(),
		Elapsed: time.Since(start),
		Note:    fmt.Sprintf("no counterexample up to depth %d", opts.maxDepth()),
	}), nil
}

// recoverCompile converts a cnf.CompileError panic from the encoder
// into an ordinary error at an engine's API boundary; any other panic
// is re-raised (internal invariants should crash loudly in tests).
func recoverCompile(err *error) {
	if r := recover(); r != nil {
		if ce, ok := r.(*cnf.CompileError); ok {
			*err = fmt.Errorf("mc: %w", ce)
			return
		}
		panic(r)
	}
}

// coSafety reports whether an NNF formula is a pure finite-witness
// (co-safety) formula: no G or R operators.
func coSafety(f *ltl.Formula) bool {
	if f == nil {
		return true
	}
	if f.Kind == ltl.KindG || f.Kind == ltl.KindR {
		return false
	}
	return coSafety(f.L) && coSafety(f.R)
}
