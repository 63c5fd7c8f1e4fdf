package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"verdict"
	"verdict/internal/watch/extract"
)

// Every input a workload feeds the system is generated here from the
// seed alone, so the same seed yields byte-identical instance lists,
// arrival schedules and event streams (perfbench_test.go pins this).
// The program under test sees only the generated inputs.

// engineOrder returns rounds seeded permutations of cells 0..n-1. Each
// round runs every cell exactly once, so the mix (and with it every
// percentile's position among the cells) is the same for every seed;
// the seed only changes the order.
func engineOrder(seed int64, n, rounds int) []int {
	rng := rand.New(rand.NewSource(seed))
	var order []int
	for r := 0; r < rounds; r++ {
		order = append(order, rng.Perm(n)...)
	}
	return order
}

// serveOp is one scheduled submission of the serve workload.
type serveOp struct {
	Due    time.Duration `json:"due"`   // offset from the phase start
	Phase  int           `json:"phase"` // 0 = nominal rate, 1 = twice it
	Hit    bool          `json:"hit"`
	Tenant int           `json:"tenant"` // index into serveTenants
	// Model identifies the submitted model: a warm-set or earlier miss
	// model for hits, a fresh one for misses (see serveModel).
	Model int `json:"model"`
}

// Serve workload shape. The shares are chosen, not taken from a
// recorded trace: the nominal rate, the hit share and the warm set are
// sized so that each phase has at least 1000 hits (for p99) and 100
// misses (for p90) within its share of --seconds, and the warm set
// exceeds the server's 1024-entry result LRU so skewed hits on old
// models reach the disk store (with the quadratic skew below, about 3%
// of hits).
const (
	serveRate     = 100.0 // nominal submissions per second (phase 0)
	serveHitShare = 0.85
	serveWarm     = 1100 // models settled before set-up, reloaded by each set-up
	// serveHitLag keeps hits off models whose miss may still be in
	// flight: a hit only targets a miss due this long before it.
	serveHitLag = 2 * time.Second
)

// serveOpsPerPhase sizes both phases to the same operation count;
// phase 0 at serveRate and phase 1 at twice it together take about
// 70% of the measured seconds (the rest is drain, scrape and the
// recovery measurement).
func serveOpsPerPhase(seconds float64) int {
	n := int(0.7 * seconds * serveRate / 1.5)
	if min := int(math.Ceil(1000 / serveHitShare * 1.1)); n < min {
		n = min
	}
	return n
}

// serveSchedule generates both phases' open-loop Poisson arrivals:
// n arrivals per phase at exactly its rate on average (a Poisson
// process conditioned on its count, so every seed offers the same
// load) and the same hit share. Hits pick, with a skew toward recent
// models, from every model settled so far (the warm set plus misses at
// least serveHitLag old); misses get fresh model numbers from
// serveWarm upward.
func serveSchedule(seed int64, seconds float64) []serveOp {
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	n := serveOpsPerPhase(seconds)
	var ops []serveOp
	type missAt struct {
		at    time.Duration // absolute (both phases on one clock)
		model int
	}
	var misses []missAt
	// Models 0..settled-1 are eligible for hits: misses are numbered
	// in due order from serveWarm, so they age into the range in order.
	settled := serveWarm
	next := serveWarm
	var clock time.Duration
	for phase := 0; phase < 2; phase++ {
		span := float64(n) / (serveRate * float64(phase+1)) * float64(time.Second)
		gaps := make([]float64, n+1)
		total := 0.0
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
			total += gaps[i]
		}
		// Exactly the hit share of each phase is hits, in seeded
		// positions, so every seed offers the same mix.
		hit := make([]bool, n)
		for i := 0; i < int(math.Round(serveHitShare*float64(n))); i++ {
			hit[i] = true
		}
		rng.Shuffle(n, func(i, j int) { hit[i], hit[j] = hit[j], hit[i] })
		at := 0.0
		for i := 0; i < n; i++ {
			at += gaps[i]
			t := time.Duration(at / total * span)
			op := serveOp{Due: t, Phase: phase, Tenant: rng.Intn(len(serveTenants))}
			for len(misses) > 0 && misses[0].at+serveHitLag <= clock+t {
				settled++
				misses = misses[1:]
			}
			if hit[i] {
				// Quadratic skew: recent models are hot, the oldest
				// still get a steady trickle.
				u := rng.Float64()
				op.Hit, op.Model = true, settled-1-int(float64(settled)*u*u)
			} else {
				op.Model = next
				misses = append(misses, missAt{clock + t, next})
				next++
			}
			ops = append(ops, op)
		}
		clock += time.Duration(span)
	}
	return ops
}

// watchBatch is one event batch a watch session posts, with the
// verdicts its two extracted properties must settle to and what the
// session's verify pass must count for it.
type watchBatch struct {
	Events []extract.Event `json:"events"`
	Class  string          `json:"class"` // setup, clean, dirty-hit, dirty-miss, flip
	// Want is each property's verdict after this batch.
	Want map[string]string `json:"want"`
	// Runs and Skipped are the properties the pass must re-check
	// (source changed) and skip (source unchanged).
	Runs      int        `json:"runs"`
	Skipped   int        `json:"skipped"`
	Flips     int        `json:"flips"`
	Incidents int        `json:"incidents"`
	state     watchState // the configuration after this batch
}

// Watch stream shape: mostly observability no-ops, with dirty changes
// answered from the result cache, dirty changes that need a real
// check, and verdict flips. The shares are chosen, not measured: no-ops
// are the majority, as config-change streams mostly are, and each
// minority class gets enough batches in a run for its own median
// (reported per class beside the overall one).
var watchMix = []struct {
	class string
	share float64
}{{"clean", 0.72}, {"dirty-hit", 0.12}, {"dirty-miss", 0.10}, {"flip", 0.06}}

// The streams' cluster: two workers at base load 5 and the web
// deployment (request 50, so the descheduler sees utilization 55) with
// an HPA. Two properties are extracted from it:
//
//	descheduler/web  holds iff utilization <= threshold; its source only
//	                 depends on which side of 55 the threshold is, so it
//	                 changes only on a flip.
//	hpa-surge/web    holds iff the HPA is not defective or its cap does
//	                 not exceed the replica spec; its source changes with
//	                 replicas, max_replicas, max_surge and the defect.
//
// Session s uses max_surge values {2s+1, 2s+2}, so the two sessions
// never share an HPA model and each stream's cache hits and misses are
// fixed by the stream alone.
const (
	watchBaseLoad = 5
	watchRequest  = 50
	watchMaxRep   = 12 // replicas range 1..watchMaxRep
	watchCapSpan  = 24 // max_replicas range replicas..replicas+watchCapSpan
)

// watchState is a stream's configuration as the generator tracks it.
type watchState struct {
	replicas, maxRep, surge, threshold int
	bug                                bool
}

func (w watchState) deschHolds() bool { return watchRequest+watchBaseLoad <= w.threshold }
func (w watchState) hpaHolds() bool   { return !w.bug || w.maxRep <= w.replicas }

// hpaKey identifies the hpa-surge model's source.
func (w watchState) hpaKey() [4]int {
	return [4]int{w.replicas, w.maxRep, w.surge, map[bool]int{false: 0, true: 1}[w.bug]}
}

func (w watchState) want() map[string]string {
	v := map[bool]string{true: "holds", false: "violated"}
	return map[string]string{"descheduler/web": v[w.deschHolds()], "hpa-surge/web": v[w.hpaHolds()]}
}

// model builds the named extracted property's model for w, with the
// parameters extract derives from the streams' cluster: a hosting
// worker's utilization is the request plus the base load, and an HPA
// capped below the replica spec is modelled at the spec.
func (w watchState) model(prop string) (*verdict.System, *verdict.LTL, error) {
	switch prop {
	case "descheduler/web":
		ds := verdict.BuildDescheduler(verdict.DeschedulerConfig{RequestCPU: watchRequest + watchBaseLoad, Threshold: int64(w.threshold)})
		return ds.Sys, ds.Property, nil
	case "hpa-surge/web":
		h, err := verdict.BuildHPASurge(verdict.HPASurgeConfig{InitialDesired: int64(w.replicas), MaxSurge: int64(w.surge),
			MaxReplicas: int64(max(w.maxRep, w.replicas)), HPABug: w.bug})
		if err != nil {
			return nil, nil, err
		}
		return h.Sys, h.Property, nil
	}
	return nil, nil, fmt.Errorf("no model for property %s", prop)
}

func (w watchState) events() []extract.Event {
	return []extract.Event{
		{Kind: extract.KindDeployment, Name: "web", Deployment: &extract.DeploymentSpec{Replicas: w.replicas, RequestCPU: watchRequest, MaxSurge: w.surge}},
		{Kind: extract.KindHPA, Name: "web", HPA: &extract.HPASpec{MaxReplicas: int64(w.maxRep), ReportsExpectedAsCurrent: w.bug}},
		{Kind: extract.KindDescheduler, Descheduler: &extract.DeschedulerSpec{Threshold: w.threshold}},
	}
}

func watchInitial(session int) watchState {
	return watchState{replicas: 2, maxRep: 4, surge: 2*session + 1, threshold: 70}
}

// watchSetup is the batch that creates a session's cluster; both
// properties are new, so its pass runs two checks.
func watchSetup(session int) watchBatch {
	w := watchInitial(session)
	evs := []extract.Event{
		{Kind: extract.KindNode, Name: "w2", Node: &extract.NodeSpec{Capacity: 100, BaseLoad: watchBaseLoad}},
		{Kind: extract.KindNode, Name: "w3", Node: &extract.NodeSpec{Capacity: 100, BaseLoad: watchBaseLoad}},
	}
	return watchBatch{Events: append(evs, w.events()...), Class: "setup", Want: w.want(), Runs: 2}
}

// watchStream generates n batches for one session after watchSetup.
func watchStream(seed int64, session, n int) []watchBatch {
	rng := rand.New(rand.NewSource(seed*31 + int64(session) + 0x3a7c))
	cur := watchInitial(session)
	seen := map[[4]int]bool{cur.hpaKey(): true}
	var out []watchBatch
	for len(out) < n {
		class := pickClass(rng.Float64())
		next, ok := cur, true
		switch class {
		case "dirty-hit", "dirty-miss":
			// Move replicas, max_replicas or max_surge, keeping both
			// verdicts, to a model seen before (hit) or not (miss).
			var cands []watchState
			for _, c := range cur.hpaMoves(session) {
				if c.hpaHolds() == cur.hpaHolds() && seen[c.hpaKey()] == (class == "dirty-hit") {
					cands = append(cands, c)
				}
			}
			if ok = len(cands) > 0; ok {
				next = cands[rng.Intn(len(cands))]
			}
		case "flip":
			// Cross the descheduler threshold, or toggle the HPA
			// defect where its cap leaves room to ratchet.
			if cur.maxRep > cur.replicas && rng.Intn(2) == 0 {
				next.bug = !cur.bug
			} else if cur.deschHolds() {
				next.threshold = rng.Intn(watchRequest + watchBaseLoad)
			} else {
				next.threshold = watchRequest + watchBaseLoad + rng.Intn(46)
			}
		}
		if !ok {
			class = "clean" // nothing reachable: emit a no-op instead
		}
		b := watchBatch{Class: class, Want: next.want(), state: next}
		if class == "clean" {
			b.Events = cleanEvents(rng)
			b.Skipped = 2
		} else {
			b.Events = diffEvents(cur, next)
			if rng.Intn(3) == 0 {
				b.Events = append(b.Events, cleanEvents(rng)...)
			}
			for _, changed := range []bool{cur.hpaKey() != next.hpaKey(), cur.deschHolds() != next.deschHolds()} {
				if changed {
					b.Runs++
				} else {
					b.Skipped++
				}
			}
			for _, pair := range [][2]bool{{cur.deschHolds(), next.deschHolds()}, {cur.hpaHolds(), next.hpaHolds()}} {
				if pair[0] != pair[1] {
					b.Flips++
					if pair[0] {
						b.Incidents++
					}
				}
			}
			seen[next.hpaKey()] = true
			cur = next
		}
		out = append(out, b)
	}
	return out
}

// hpaMoves lists configurations one HPA-model change away: another
// replica count, cap, or (within the session's pair) surge.
func (w watchState) hpaMoves(session int) []watchState {
	var out []watchState
	for r := max(1, w.maxRep-watchCapSpan); r <= min(watchMaxRep, w.maxRep); r++ {
		if r != w.replicas {
			c := w
			c.replicas = r
			out = append(out, c)
		}
	}
	for m := w.replicas; m <= w.replicas+watchCapSpan; m++ {
		if m != w.maxRep {
			c := w
			c.maxRep = m
			out = append(out, c)
		}
	}
	c := w
	c.surge = 4*session + 3 - w.surge // the session's other surge value
	return append(out, c)
}

// diffEvents is the config-change events that move cur to next.
func diffEvents(cur, next watchState) []extract.Event {
	all, was := next.events(), cur.events()
	var out []extract.Event
	for i := range all {
		a, _ := json.Marshal(all[i])
		b, _ := json.Marshal(was[i])
		if string(a) != string(b) {
			out = append(out, all[i])
		}
	}
	return out
}

func pickClass(u float64) string {
	for _, m := range watchMix {
		if u < m.share {
			return m.class
		}
		u -= m.share
	}
	return watchMix[0].class
}

// cleanEvents is one or two telemetry ticks or annotations: traffic no
// extracted model depends on.
func cleanEvents(rng *rand.Rand) []extract.Event {
	var evs []extract.Event
	for i := 0; i <= rng.Intn(2); i++ {
		if rng.Intn(4) == 0 {
			evs = append(evs, extract.Event{Kind: extract.KindAnnotation, Name: "web",
				Note: fmt.Sprintf("audit %d", rng.Intn(1000))})
			continue
		}
		tel, _ := json.Marshal(map[string]map[string]int{"pod_cpu": {"web-0": 40 + rng.Intn(20), "web-1": 40 + rng.Intn(20)}})
		evs = append(evs, extract.Event{Kind: extract.KindTelemetry, Telemetry: tel})
	}
	return evs
}

// watchBatches is how many batches each session's stream holds: more
// than a closed loop can post in the measured seconds.
func watchBatches(seconds float64) int { return int(seconds * 400) }
