package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"verdict"
	"verdict/internal/smvlang"
	"verdict/internal/witness"
)

// engineCell is one cold check of the engine workload.
type engineCell struct {
	name     string
	abstract bool
	rollout  *verdict.RolloutConfig // rollout cells (concrete and abstract)
	fig6     string                 // the rollout cell's BENCH_fig6.json case, if the sweep has it
	sys      *verdict.System        // the concrete system the verdict is about
	phi      *verdict.LTL
	want     verdict.Status
}

// engineAnswers is the known-answer table: the verdict every engine
// cell must return. Rollout holds iff k is below the topology's
// critical k (2 for test and fattree4, 3 for fattree6), so each
// topology's k=2 cell is its critical cell except on fattree6; fig5 is
// the test topology at its critical k. The rollout rows are
// cross-checked against BENCH_fig6.json at start-up.
var engineAnswers = map[string]verdict.Status{
	"fig5":         verdict.Violated,
	"test/k=0":     verdict.Holds,
	"test/k=1":     verdict.Holds,
	"fattree4/k=0": verdict.Holds,
	"fattree4/k=1": verdict.Holds,
	"fattree4/k=2": verdict.Violated,
	"fattree6/k=0": verdict.Holds,
	"fattree6/k=1": verdict.Holds,
	"fattree6/k=2": verdict.Holds,
	"fattree6/k=3": verdict.Violated,

	"abstract/test/k=0":     verdict.Holds,
	"abstract/test/k=1":     verdict.Holds,
	"abstract/test/k=2":     verdict.Violated,
	"abstract/fattree4/k=0": verdict.Holds,
	"abstract/fattree4/k=1": verdict.Holds,
	"abstract/fattree4/k=2": verdict.Violated,
	"abstract/fattree6/k=0": verdict.Holds,
	"abstract/fattree6/k=1": verdict.Holds,
	"abstract/fattree6/k=2": verdict.Holds,
	"abstract/fattree6/k=3": verdict.Violated,

	"k8s/taint-loop":         verdict.Violated,
	"k8s/taint-loop/respect": verdict.Holds,
	"k8s/hpa-surge/bug":      verdict.Violated,
	"k8s/hpa-surge/fixed":    verdict.Holds,
	"k8s/incident18037/t=1":  verdict.Violated,
	"k8s/incident18037/t=4":  verdict.Holds,
	"k8s/descheduler/50>45":  verdict.Violated,
	"k8s/descheduler/40<=45": verdict.Holds,
}

// rolloutTopos are the fig6 topologies with their critical k.
var rolloutTopos = []struct {
	name string
	crit int
}{{"test", 2}, {"fattree4", 2}, {"fattree6", 3}}

// buildEngineCells builds every engine instance. The timed loop only
// checks; all model construction happens here, during set-up.
func buildEngineCells(tr *tracer) ([]engineCell, error) {
	var cells []engineCell
	for _, t := range rolloutTopos {
		for k := 0; k <= t.crit; k++ {
			g, err := verdict.TopologyByName(t.name)
			if err != nil {
				return nil, err
			}
			cfg := verdict.RolloutConfig{Topo: g, P: 1, K: k, M: 1}
			sp := tr.begin(0, "models.build", -1)
			m, err := verdict.BuildRollout(cfg)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("building %s k=%d: %w", t.name, k, err)
			}
			name := fmt.Sprintf("%s/k=%d", t.name, k)
			concrete := name
			if t.name == "test" && k == t.crit {
				concrete = "fig5"
			}
			fig6 := name
			if k == t.crit {
				fig6 = t.name + "/viol"
			}
			c := engineCell{rollout: &cfg, fig6: fig6, sys: m.Sys, phi: m.Property}
			c.name = concrete
			cells = append(cells, c)
			c.name, c.abstract = "abstract/"+name, true
			cells = append(cells, c)
		}
	}
	sp := tr.begin(0, "models.build", -1)
	tl := verdict.BuildTaintLoop(verdict.TaintLoopConfig{})
	tlOK := verdict.BuildTaintLoop(verdict.TaintLoopConfig{RespectTaints: true})
	hpa, err := verdict.BuildHPASurge(verdict.HPASurgeConfig{MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1, HPABug: true})
	if err != nil {
		return nil, err
	}
	hpaOK, err := verdict.BuildHPASurge(verdict.HPASurgeConfig{MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1})
	if err != nil {
		return nil, err
	}
	bq, err := verdict.BuildIncident18037(verdict.Incident18037Config{AbuseThreshold: 1})
	if err != nil {
		return nil, err
	}
	bqOK, err := verdict.BuildIncident18037(verdict.Incident18037Config{AbuseThreshold: 4})
	if err != nil {
		return nil, err
	}
	ds := verdict.BuildDescheduler(verdict.DeschedulerConfig{RequestCPU: 50, Threshold: 45})
	dsOK := verdict.BuildDescheduler(verdict.DeschedulerConfig{RequestCPU: 40, Threshold: 45})
	tr.end(sp)
	cells = append(cells,
		engineCell{name: "k8s/taint-loop", sys: tl.Sys, phi: tl.Property},
		engineCell{name: "k8s/taint-loop/respect", sys: tlOK.Sys, phi: tlOK.Property},
		engineCell{name: "k8s/hpa-surge/bug", sys: hpa.Sys, phi: hpa.Property},
		engineCell{name: "k8s/hpa-surge/fixed", sys: hpaOK.Sys, phi: hpaOK.Property},
		engineCell{name: "k8s/incident18037/t=1", sys: bq.Sys, phi: bq.Property},
		engineCell{name: "k8s/incident18037/t=4", sys: bqOK.Sys, phi: bqOK.Property},
		engineCell{name: "k8s/descheduler/50>45", sys: ds.Sys, phi: ds.Property},
		engineCell{name: "k8s/descheduler/40<=45", sys: dsOK.Sys, phi: dsOK.Property},
	)
	for i := range cells {
		want, ok := engineAnswers[cells[i].name]
		if !ok {
			return nil, fmt.Errorf("no known answer for engine cell %s", cells[i].name)
		}
		cells[i].want = want
	}
	return cells, nil
}

// crossCheckFig6 compares the rollout rows of the known-answer table
// with the statuses committed in BENCH_fig6.json (coop rows for
// concrete cells, abstract rows for abstract cells). Cells the sweep
// does not cover are skipped.
func crossCheckFig6(path string, cells []engineCell, answers map[string]verdict.Status, rep *report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the fig6 baseline: %w", err)
	}
	var base struct {
		Entries []struct{ Case, Mode, Status string } `json:"entries"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing BENCH_fig6.json: %w", err)
	}
	status := map[string]string{}
	for _, e := range base.Entries {
		status[e.Mode+" "+e.Case] = e.Status
	}
	for _, c := range cells {
		if c.rollout == nil {
			continue
		}
		mode := "coop"
		if c.abstract {
			mode = "abstract"
		}
		got, ok := status[mode+" "+c.fig6]
		if !ok {
			continue
		}
		if want := answers[c.name].String(); got != want {
			rep.fail("known answer for %s is %s but BENCH_fig6.json records %s for %s %s", c.name, want, got, mode, c.fig6)
		}
	}
	return nil
}

// checkCell runs one cold check with witness validation on.
func checkCell(c *engineCell, tr *tracer, op uint64, parent int) (*verdict.Result, *verdict.AbstractResult, error) {
	opts := verdict.Options{ValidateWitness: true, Timeout: engineCheckLimit}
	if c.abstract {
		sp := tr.begin(op, "abstract.check", parent)
		ar, err := verdict.CheckAbstract(*c.rollout, verdict.AbstractOptions{MC: opts})
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		return ar.Result, ar, nil
	}
	sp := tr.begin(op, "mc.portfolio", parent)
	res, err := verdict.CheckPortfolio(c.sys, c.phi, opts)
	tr.end(sp)
	return res, nil, err
}

// engineCheckLimit is the per-check wall-clock limit; decided_ratio
// counts checks that reach holds or violated within it.
const engineCheckLimit = 60 * time.Second

// engineMinRounds gives the p90 at least 100 samples: 28 cells x 4.
const engineMinRounds = 4

func runEngine(r *run, rep *report) error {
	var cells []engineCell
	setup, teardown, err := repeatSetup(func(int) (func(), error) {
		var err error
		cells, err = buildEngineCells(r.tr)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	r.tr.reset() // set-up spans are reported as models.build_ms instead
	if err := crossCheckFig6("BENCH_fig6.json", cells, engineAnswers, rep); err != nil {
		return err
	}

	var lat []float64
	perCell := map[string][]float64{}
	var checkTime time.Duration
	decided := 0
	ls := &layerStats{}
	heap := sampleHeap()
	before := readRuntime()
	start := time.Now()
	rounds := 0
	order := engineOrder(r.seed, len(cells), 1000)
	var opID uint64
	for i := 0; ; i++ {
		if i%len(cells) == 0 {
			// Whole rounds only, so every run has the same mix: stop
			// when another round would overrun --seconds.
			elapsed := time.Since(start)
			if i == len(order) || rounds >= engineMinRounds && elapsed+elapsed/time.Duration(rounds) > secondsDur(r.seconds) {
				break
			}
			rounds++
		}
		c := &cells[order[i]]
		opID++
		root := r.tr.begin(opID, "engine.check", -1)
		t0 := time.Now()
		res, ar, err := checkCell(c, r.tr, opID, root)
		d := time.Since(t0)
		r.tr.end(root)
		rep.attempted++
		checkTime += d
		lat = append(lat, ms(d))
		perCell[c.name] = append(perCell[c.name], ms(d))
		if err == nil && res.Status != verdict.Unknown {
			decided++
		}
		if judge(c, res, err, r.tr, opID, rep, ls) {
			ls.addResult(c.name, res, ar)
		}
	}
	peak := heap.peakMB()
	if r.tr != nil {
		before.report(rep, len(lat))
	}
	n := float64(len(lat))
	// ops_per_s is the rate of a round run at every cell's median check
	// time: the slowest cell takes most of a round, so one slow run of
	// it would move the plain rate (checks_per_s) by itself.
	round := 0.0
	for _, c := range cells {
		round += median(perCell[c.name]) / 1e3
	}
	rep.headline(setup, lat, float64(len(cells))/round, peak)
	rep.metric("checks_per_s", "1/s", n/checkTime.Seconds(), len(lat))
	rep.pct(&rep.e2e, "verdict_ms_p50", lat, 0.5)
	rep.pct(&rep.e2e, "verdict_ms_p90", lat, 0.9)
	rep.metric("decided_ratio", "ratio", float64(decided)/n, len(lat))
	rep.metric("error_ratio", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	for _, c := range cells {
		rep.detail = append(rep.detail, metric{"cell." + c.name + "_ms_median", "ms", median(perCell[c.name]), len(perCell[c.name])})
	}
	if r.tr != nil {
		ls.report(rep)
		probeEngine(cells, ls, rep)
	}
	return nil
}

// judge applies the oracle to one check: no error, the known answer,
// no failed witness, and every violated verdict's counterexample
// replays through witness.Validate here too. It counts any mismatch as
// a failed operation and reports whether the check passed.
func judge(c *engineCell, res *verdict.Result, err error, tr *tracer, op uint64, rep *report, ls *layerStats) bool {
	if err != nil {
		rep.fail("%s: %v", c.name, err)
		return false
	}
	if res.Status != c.want {
		rep.fail("%s: verdict %s, want %s (%s)", c.name, res.Status, c.want, res.Note)
		return false
	}
	if res.Witness == witness.Failed {
		rep.fail("%s: engine witness validation failed: %s", c.name, res.Note)
		return false
	}
	if res.Status != verdict.Violated {
		return true
	}
	if res.Trace == nil {
		// Liveness violations decided by BDD fixpoints carry no lasso.
		ls.witnessNone++
		return true
	}
	sp := tr.begin(op, "witness.validate", -1)
	ok := ls.validateTrace(c.sys, c.phi, res.Trace, c.name, rep)
	tr.end(sp)
	return ok
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// probeEngine times model construction and runs the layer probes on
// every concrete engine model, unrolled to the depth its check
// reached.
func probeEngine(cells []engineCell, ls *layerStats, rep *report) {
	var build []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := buildEngineCells(nil); err != nil {
			rep.fail("rebuilding models: %v", err)
			return
		}
		build = append(build, ms(time.Since(t0)))
	}
	rep.layer("models.build_ms", "ms", median(build), len(build))
	var models []probeModel
	for _, c := range cells {
		if c.abstract {
			continue
		}
		src, err := smvlang.Canonical(&smvlang.Program{Sys: c.sys, LTLSpecs: []*verdict.LTL{c.phi}})
		if err != nil {
			rep.fail("%s: canonical render: %v", c.name, err)
			continue
		}
		models = append(models, probeModel{src: src, depth: ls.depth[c.name]})
	}
	probeModels(models, rep)
	for _, name := range []string{"cache.hits", "cache.misses", "journal.records"} {
		rep.layer(name, "count", 0, -1) // the engine workload bypasses the service layers
	}
	bypassWatch(rep)
}
