package main

import (
	"strings"
	"time"

	"verdict"
	"verdict/internal/cache"
	"verdict/internal/cnf"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/sat"
	"verdict/internal/smvlang"
	"verdict/internal/witness"
)

// layerMap records which end-to-end metric each layer's per-layer
// metrics should move, on which workload, and which workload bypasses
// the layer (where the prediction for a change to it is "no change").
// The traced run prints it with the per-layer numbers.
var layerMap = []struct{ layer, moves, on string }{
	{"mc", "verdict_ms_p50, checks_per_s", "on engine / bypass serve"},
	{"cnf", "verdict_ms_p50, checks_per_s", "on engine / bypass serve"},
	{"sat", "verdict_ms_p90 (violation cells are search-bound)", "on engine / bypass serve"},
	{"bdd", "verdict_ms_p50", "on engine / bypass serve"},
	{"abstract", "verdict_ms_p90", "on engine / bypass serve"},
	{"witness", "verdict_ms_p50", "on engine, serve / bypass watch clean events"},
	{"models,topo,ts", "setup_s", "on engine"},
	{"smvlang", "hit_ms_p50, hit_ms_p99", "on serve / bypass engine"},
	{"cache", "hit_ms_p50, hit_ms_p99_2x", "on serve / bypass engine"},
	{"journal", "verdict_ms_p50 (serve), recovery_s, event_ms_p99", "on serve, watch / bypass engine"},
	{"server", "verdict_ms_p90_2x, hit_ms_p99_2x", "on serve / bypass engine"},
	{"cluster", "verdict_ms_p50 (serve)", "on serve / bypass watch"},
	{"watch,extract", "event_ms_p50 (clean), event_ms_p99 (miss/flip)", "on watch / bypass serve, engine"},
	{"runtime", "peak_heap_mb and every latency", "on all"},
	{"load,trace", "validity of serve; the traced run's cost", "on all"},
}

// perLayer names the per-layer metrics BENCHMARK.json lists. Every
// workload's traced run reports each of them: a count is 0 on a
// workload that bypasses its layer, and the timed probes (cnf, sat,
// smvlang, cache key, witness) run on each workload's own models.
var perLayer = []string{
	"mc.wins.bmc", "mc.wins.k-induction", "mc.wins.bdd",
	"cnf.encode_ms", "cnf.vars", "cnf.clauses",
	"sat.solve_ms", "sat.conflicts", "sat.decisions", "sat.propagations", "sat.props_per_ms",
	"smvlang.parse_us", "smvlang.render_us", "cache.key_us",
	"witness.validate_ms", "witness.validated", "witness.failures",
	"cache.hits", "cache.misses", "journal.records",
	"watch.rechecks_run", "watch.rechecks_skipped",
	"watch.clean_ms_p50", "watch.dirty_hit_ms_p50", "watch.miss_ms_p50", "watch.flip_ms_p50",
	"runtime.alloc_kb_per_op", "runtime.mallocs_per_op", "runtime.gc_cpu_pct",
	"trace.overhead_pct",
}

// watchClassP50 names the per-layer median latency of each watch batch
// class, so a regression in a minority class shows whatever the mix.
var watchClassP50 = []struct{ class, name string }{
	{"clean", "watch.clean_ms_p50"}, {"dirty-hit", "watch.dirty_hit_ms_p50"},
	{"dirty-miss", "watch.miss_ms_p50"}, {"flip", "watch.flip_ms_p50"},
}

// bypassWatch reports the watch layer's listed metrics as 0 on a
// workload that does not run it.
func bypassWatch(rep *report) {
	rep.layer("watch.rechecks_run", "count", 0, -1)
	rep.layer("watch.rechecks_skipped", "count", 0, -1)
	for _, c := range watchClassP50 {
		rep.layer(c.name, "ms", 0, 0)
	}
}

// layerStats accumulates what the engine workload's results say about
// the layers below the portfolio.
type layerStats struct {
	wins                            map[string]int
	depth                           map[string]int // deciding depth per cell
	depthMS, bddNodes, absMS        []float64
	reuses, shared, handedOff       int64
	conflicts, decisions, props     int64
	refinements, spurious           int
	validate                        []float64
	validated, skipped, witnessNone int
	witnessFailures                 int
}

func (ls *layerStats) addResult(cell string, res *verdict.Result, ar *verdict.AbstractResult) {
	if ls.wins == nil {
		ls.wins, ls.depth = map[string]int{}, map[string]int{}
	}
	eng := res.Engine[strings.LastIndex(res.Engine, "/")+1:]
	ls.wins[eng]++
	ls.depth[cell] = res.Depth
	ls.countWitness(res.Witness.String())
	if st := res.Stats; st != nil {
		for _, d := range st.DepthTime {
			ls.depthMS = append(ls.depthMS, ms(d))
		}
		ls.reuses += st.IncrementalReuses
		ls.shared += st.BoundsShared
		ls.handedOff += st.InvariantsHandedOff
		ls.conflicts += st.Conflicts
		ls.decisions += st.Decisions
		ls.props += st.Propagations
		if eng == "bdd" {
			ls.bddNodes = append(ls.bddNodes, float64(st.BDDNodes))
		}
	}
	if ar != nil {
		ls.absMS = append(ls.absMS, ms(res.Elapsed))
		ls.refinements += ar.Refinements
		ls.spurious += ar.Spurious
	}
}

func (ls *layerStats) report(rep *report) {
	for _, e := range []string{"bmc", "k-induction", "bdd"} {
		rep.layer("mc.wins."+e, "count", float64(ls.wins[e]), -1)
	}
	rep.layer("mc.depth_ms", "ms", mean(ls.depthMS), len(ls.depthMS))
	rep.layer("mc.incremental_reuses", "count", float64(ls.reuses), -1)
	rep.layer("mc.bounds_shared", "count", float64(ls.shared), -1)
	rep.layer("mc.invariants_handed_off", "count", float64(ls.handedOff), -1)
	rep.layer("sat.search_conflicts", "count", float64(ls.conflicts), -1)
	rep.layer("sat.search_decisions", "count", float64(ls.decisions), -1)
	rep.layer("sat.search_propagations", "count", float64(ls.props), -1)
	rep.layer("bdd.nodes", "count", mean(ls.bddNodes), len(ls.bddNodes))
	rep.layer("abstract.check_ms", "ms", mean(ls.absMS), len(ls.absMS))
	rep.layer("abstract.refinements", "count", float64(ls.refinements), -1)
	rep.layer("abstract.spurious", "count", float64(ls.spurious), -1)
	ls.reportWitness(rep)
}

// countWitness tallies a verdict's witness-validation status.
func (ls *layerStats) countWitness(status string) {
	switch status {
	case witness.Validated.String():
		ls.validated++
	case witness.Skipped.String():
		ls.skipped++
	}
}

// validateTrace replays a counterexample through witness.Validate; a
// trace that does not replay is a wrong output.
func (ls *layerStats) validateTrace(sys *verdict.System, phi *verdict.LTL, t *verdict.Trace, what string, rep *report) bool {
	t0 := time.Now()
	err := witness.Validate(sys, phi, t)
	ls.validate = append(ls.validate, ms(time.Since(t0)))
	if err != nil {
		ls.witnessFailures++
		rep.fail("%s: counterexample does not replay: %v", what, err)
		return false
	}
	return true
}

func (ls *layerStats) reportWitness(rep *report) {
	rep.layer("witness.validate_ms", "ms", mean(ls.validate), len(ls.validate))
	rep.layer("witness.validated", "count", float64(ls.validated), -1)
	rep.layer("witness.skipped", "count", float64(ls.skipped), -1)
	rep.layer("witness.none", "count", float64(ls.witnessNone), -1)
	rep.layer("witness.failures", "count", float64(ls.witnessFailures), -1)
}

// encodeProbe unrolls sys to depth with cnf (INIT, INVAR and TRANS per
// frame, plus the negated invariant at the last frame when the
// property is an invariant) and solves it with a fresh sat.Solver,
// timing both halves.
type encodeProbe struct {
	encodeMS, solveMS           []float64
	vars, clauses               []float64
	conflicts, decisions, props int64
}

func (p *encodeProbe) run(sys *verdict.System, inv *expr.Expr, depth int) {
	if len(sys.Params()) > 0 {
		return
	}
	t0 := time.Now()
	s := sat.New()
	enc := cnf.NewEncoder(s)
	frames := []*cnf.Frame{enc.NewFrame(sys.Vars())}
	enc.Assert(sys.InitExpr(), frames[0], nil)
	for i := 0; i < depth; i++ {
		frames = append(frames, enc.NewFrame(sys.Vars()))
		enc.Assert(sys.TransExpr(), frames[i], frames[i+1])
	}
	for _, f := range frames {
		enc.Assert(sys.InvarExpr(), f, nil)
	}
	if inv != nil {
		enc.Assert(expr.Not(inv), frames[depth], nil)
	}
	p.encodeMS = append(p.encodeMS, ms(time.Since(t0)))
	st := s.Stats()
	p.vars = append(p.vars, float64(st.Vars))
	p.clauses = append(p.clauses, float64(st.Clauses))
	t0 = time.Now()
	s.Solve()
	p.solveMS = append(p.solveMS, ms(time.Since(t0)))
	st = s.Stats()
	p.conflicts += st.Conflicts
	p.decisions += st.Decisions
	p.props += st.Propagations
}

func (p *encodeProbe) report(rep *report) {
	rep.layer("cnf.encode_ms", "ms", mean(p.encodeMS), len(p.encodeMS))
	rep.layer("cnf.vars", "count", mean(p.vars), len(p.vars))
	rep.layer("cnf.clauses", "count", mean(p.clauses), len(p.clauses))
	solve := mean(p.solveMS)
	rep.layer("sat.solve_ms", "ms", solve, len(p.solveMS))
	rep.layer("sat.conflicts", "count", float64(p.conflicts), -1)
	rep.layer("sat.decisions", "count", float64(p.decisions), -1)
	rep.layer("sat.propagations", "count", float64(p.props), -1)
	total := 0.0
	for _, x := range p.solveMS {
		total += x
	}
	rate := 0.0
	if total > 0 {
		rate = float64(p.props) / total
	}
	rep.layer("sat.props_per_ms", "1/ms", rate, -1)
}

// probeDepth is the unroll depth of the cnf/sat probe when the check
// that decided a model reported none.
const probeDepth = 10

// probeModel is one model a workload checked, as the layer probes see
// it: its source text (the content-addressed canonical render) and,
// when parsed, its system and property.
type probeModel struct {
	src   string
	depth int
}

// probeModels runs the timed layer probes over a workload's own
// models: smvlang parse and canonical render, the cache content
// address, and a cnf encoding of the model's unroll solved by sat.
func probeModels(models []probeModel, rep *report) {
	var parseUS, renderUS, keyUS []float64
	ep := &encodeProbe{}
	for _, m := range models {
		t0 := time.Now()
		prog, err := smvlang.Parse(m.src)
		parseUS = append(parseUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			rep.fail("probe: model does not parse: %v", err)
			continue
		}
		t0 = time.Now()
		canonical := smvlang.Render(&smvlang.Program{Sys: prog.Sys})
		renderUS = append(renderUS, float64(time.Since(t0).Nanoseconds())/1e3)
		var phi *ltl.Formula
		if len(prog.LTLSpecs) > 0 {
			phi = prog.LTLSpecs[0]
		}
		t0 = time.Now()
		_ = cache.Key(canonical, phi.String(), "probe")
		keyUS = append(keyUS, float64(time.Since(t0).Nanoseconds())/1e3)
		inv, _ := ltl.IsSafetyInvariant(phi)
		depth := m.depth
		if depth <= 0 {
			depth = probeDepth
		}
		ep.run(prog.Sys, inv, depth)
	}
	rep.layer("smvlang.parse_us", "us", mean(parseUS), len(parseUS))
	rep.layer("smvlang.render_us", "us", mean(renderUS), len(renderUS))
	rep.layer("cache.key_us", "us", mean(keyUS), len(keyUS))
	ep.report(rep)
}
