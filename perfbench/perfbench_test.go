package main

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"verdict"
	"verdict/internal/smvlang"
	"verdict/internal/watch/extract"
)

// inputsJSON serializes every generated input of one seed.
func inputsJSON(t *testing.T, seed int64) string {
	t.Helper()
	all := map[string]any{
		"engine": engineOrder(seed, 28, 5),
		"serve":  serveSchedule(seed, 30),
		"watch0": watchStream(seed, 0, 2000),
		"watch1": watchStream(seed, 1, 2000),
	}
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestInputsAreSeeded(t *testing.T) {
	a, b := inputsJSON(t, 7), inputsJSON(t, 7)
	if a != b {
		t.Fatal("the same seed generated different inputs")
	}
	if a == inputsJSON(t, 8) {
		t.Fatal("different seeds generated identical inputs")
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0}, {20, 0.5, true, 10},
		{99, 0.9, false, 0}, {100, 0.9, true, 90},
		{999, 0.99, false, 0}, {1000, 0.99, true, 990},
	} {
		v, ok := quantile(seq(c.n), c.q)
		if ok != c.ok || v != c.want {
			t.Errorf("quantile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestPerSecondMedian(t *testing.T) {
	// Seconds 0..3 complete 3, 1, 3 and 0 operations; the one at 4.2 s
	// falls in a partial second and is not counted.
	done := []float64{0.1, 0.5, 0.9, 1.5, 2.0, 2.2, 2.9, 4.2}
	if got := perSecondMedian(done, 4500*time.Millisecond); got != 2 {
		t.Errorf("perSecondMedian = %g, want 2", got)
	}
	if got := perSecondMedian(done, 500*time.Millisecond); !math.IsNaN(got) {
		t.Errorf("perSecondMedian over no whole second = %g, want NaN", got)
	}
}

func TestRefusedPercentileInvalidatesRun(t *testing.T) {
	rep := &report{workload: "t", attempted: 1}
	rep.pct(&rep.e2e, "x_p99", make([]float64, 500), 0.99)
	if len(rep.e2e) != 0 || len(rep.invalid) != 1 || rep.correct() {
		t.Fatalf("a p99 over 500 samples was reported (%v) or left the run valid (%v)", rep.e2e, rep.invalid)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP verdictd_checks_total Finished checks.
# TYPE verdictd_checks_total counter
verdictd_checks_total{verdict="holds"} 3
verdictd_checks_total{verdict="violated"} 2
verdictd_queue_wait_seconds_bucket{class="bulk",le="0.001"} 1
verdictd_queue_wait_seconds_sum{class="bulk"} 0.5
verdictd_queue_wait_seconds_count{class="bulk"} 4
verdictd_brownout_level 0
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("verdictd_checks_total"); got != 5 {
		t.Errorf("sum of checks = %g, want 5", got)
	}
	if got := p.sum("verdictd_checks_total", `verdict="holds"`); got != 3 {
		t.Errorf("holds = %g, want 3", got)
	}
	if m, n := p.histMeanMS("verdictd_queue_wait_seconds", `class="bulk"`); m != 125 || n != 4 {
		t.Errorf("bulk queue wait mean = %g ms over %d, want 125 over 4", m, n)
	}
	later := promText{`verdictd_checks_total{verdict="holds"}`: 10}
	if d := diffProm(p, later); d[`verdictd_checks_total{verdict="holds"}`] != 7 {
		t.Errorf("diff = %v", d)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// A deliberately wrong expected answer must count as a failure and
// make the run incorrect, both in the per-check oracle and in the
// cross-check against BENCH_fig6.json.
func TestWrongAnswerFails(t *testing.T) {
	ds := verdict.BuildDescheduler(verdict.DeschedulerConfig{RequestCPU: 50, Threshold: 45})
	c := &engineCell{name: "k8s/descheduler/50>45", sys: ds.Sys, phi: ds.Property, want: verdict.Holds}
	res, _, err := checkCell(c, nil, 0, -1)
	rep := &report{attempted: 1}
	if judge(c, res, err, nil, 0, rep, &layerStats{}) || rep.correct() {
		t.Fatal("a violated verdict passed against a wrong known answer of holds")
	}
	c.want = verdict.Violated
	rep = &report{attempted: 1}
	if !judge(c, res, err, nil, 0, rep, &layerStats{}) || !rep.correct() {
		t.Fatalf("the right answer failed: %v", rep.problems)
	}
	rep = &report{attempted: 1}
	if judge(c, nil, errors.New("engine crashed"), nil, 0, rep, &layerStats{}) || rep.failed != 1 {
		t.Fatal("an engine error was not counted as failed")
	}

	cells, err := buildEngineCells(nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := map[string]verdict.Status{}
	for k, v := range engineAnswers {
		wrong[k] = v
	}
	wrong["fattree4/k=1"] = verdict.Violated
	rep = &report{attempted: 1}
	if err := crossCheckFig6("../BENCH_fig6.json", cells, wrong, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Fatalf("wrong fattree4/k=1 answer: %d cross-check failures, want 1 (%v)", rep.failed, rep.problems)
	}
	rep = &report{attempted: 1}
	crossCheckFig6("../BENCH_fig6.json", cells, engineAnswers, rep)
	if rep.failed != 0 {
		t.Fatalf("the committed known answers disagree with BENCH_fig6.json: %v", rep.problems)
	}
}

// The watch streams' scripted verdicts and counters follow from the
// generator's own state, and the mix has every class.
func TestWatchStreamScript(t *testing.T) {
	for s := 0; s < clients; s++ {
		classes := map[string]int{}
		for i, b := range watchStream(3, s, 3000) {
			classes[b.Class]++
			if b.Runs+b.Skipped != 2 {
				t.Fatalf("session %d batch %d: %d runs + %d skipped, want 2 properties", s, i, b.Runs, b.Skipped)
			}
			if b.Class == "clean" && (b.Runs != 0 || b.Flips != 0) {
				t.Fatalf("session %d batch %d: a clean batch re-checks or flips", s, i)
			}
			if b.Class == "flip" && b.Flips != 1 {
				t.Fatalf("session %d batch %d: a flip batch flips %d properties", s, i, b.Flips)
			}
		}
		for _, m := range watchMix {
			if classes[m.class] < 100 {
				t.Errorf("session %d: only %d %s batches in 3000", s, classes[m.class], m.class)
			}
		}
	}
}

// The model the oracle replays an incident's counterexample through is
// the one the server extracts for that batch's configuration.
func TestWatchStateModelMatchesExtract(t *testing.T) {
	for s := 0; s < clients; s++ {
		cfg := extract.NewConfig()
		checked := 0
		for i, b := range append([]watchBatch{watchSetup(s)}, watchStream(5, s, 400)...) {
			for _, ev := range b.Events {
				if err := cfg.Apply(ev); err != nil {
					t.Fatalf("session %d batch %d: %v", s, i, err)
				}
			}
			if b.Incidents == 0 {
				continue
			}
			props, err := extract.Extract(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range props {
				sys, phi, err := b.state.model(p.Name)
				if err != nil {
					t.Fatal(err)
				}
				src, err := smvlang.Canonical(&smvlang.Program{Sys: sys, LTLSpecs: []*verdict.LTL{phi}})
				if err != nil {
					t.Fatal(err)
				}
				if src != p.Source {
					t.Fatalf("session %d batch %d: the oracle's %s model differs from the extracted one", s, i, p.Name)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("session %d: no incident batch in the stream", s)
		}
	}
}

// Each serve phase carries enough hits for a p99 and misses for a p90
// at the benchmark's run length.
func TestServeScheduleSamples(t *testing.T) {
	hits, misses := [2]int{}, [2]int{}
	for _, op := range serveSchedule(1, 30) {
		if op.Hit {
			hits[op.Phase]++
		} else {
			misses[op.Phase]++
		}
	}
	for p := 0; p < 2; p++ {
		if hits[p] < 1000 || misses[p] < 100 {
			t.Errorf("phase %d: %d hits, %d misses", p, hits[p], misses[p])
		}
	}
}
