package main

import (
	"fmt"
	"path/filepath"
	"time"

	"verdict"
	"verdict/internal/cache"
	"verdict/internal/journal"
	"verdict/internal/smvlang"
)

// serveLayers reports the serve workload's per-layer metrics: the
// fleet's /metrics diffs over both phases, the route timers, and
// probes of the cache, journal, smvlang, cnf/sat and witness layers on
// the run's own models and settled bytes.
func serveLayers(fx *serveFixture, tpls []serveTemplate, sched []serveOp, phases []*phaseResult, rep *report, rt *routeTimer) {
	p := addProm(phases[0].prom, phases[1].prom)
	promEngineWins(p, rep)

	hits, misses := p.sum("verdictd_cache_hits_total"), p.sum("verdictd_cache_misses_total")
	rep.layer("cache.hits", "count", hits, -1)
	rep.layer("cache.misses", "count", misses, -1)
	rep.layer("cache.hit_ratio", "ratio", hits/(hits+misses), -1)
	rep.layer("cache.evictions", "count", p.sum("verdict_cache_evictions_total"), -1)

	var settled [][]byte
	for _, ph := range phases {
		for _, v := range ph.misses {
			settled = append(settled, v.raw)
		}
	}
	diskProbe(filepath.Join(fx.nodes[0].cfg.DataDir, "..", "probe-disk"), settled, rep)
	journalProbe(fx.nodes[0].cfg.DataDir, filepath.Join(fx.nodes[0].cfg.DataDir, "..", "probe-journal"), rep)
	rep.layer("journal.bytes", "bytes", p.sum("verdictd_journal_bytes"), -1)

	routeLayer(rt, "submit", "server.submit_ms", rep, 0.5, 0.99)
	routeLayer(rt, "wait", "server.wait_ms", rep, 0.5)
	for _, class := range []string{"interactive", "bulk"} {
		m, n := p.histMeanMS("verdictd_queue_wait_seconds", `class="`+class+`"`)
		rep.layer("server.queue_wait_ms."+class, "ms", m, n)
	}
	m, n := p.histMeanMS("verdictd_check_duration_seconds")
	rep.layer("server.check_ms", "ms", m, n)
	rep.layer("server.rejections", "count", p.sum("verdictd_queue_rejections_total")+p.sum("verdictd_tenant_rejections_total"), -1)
	rep.layer("server.brownout_level_max", "level", max(phases[0].brownoutMax, phases[1].brownoutMax), -1)

	acc := rt.get("accept")
	rep.layer("cluster.accept_ms", "ms", mean(acc), len(acc))
	repl := rt.get("replicate")
	rep.layer("cluster.replicate_ms", "ms", mean(repl), len(repl))
	rep.layer("cluster.forwards", "count", p.sum("verdictd_cluster_forwards_total"), -1)
	rep.layer("cluster.replications", "count", p.sum("verdictd_cluster_replications_total"), -1)
	rep.layer("cluster.steals", "count", p.sum("verdictd_cluster_steals_total"), -1)
	bypassWatch(rep)

	// Every distinct model the run submitted, through the probes, and
	// every violated miss's counterexample through witness.Validate.
	seen := map[int]bool{}
	var models []probeModel
	for m := 0; m < serveWarm; m++ {
		seen[m] = true
	}
	for _, op := range sched {
		seen[op.Model] = true
	}
	for m := range seen {
		src, _ := serveModel(tpls, m)
		models = append(models, probeModel{src: src})
	}
	probeModels(models, rep)
	ls := &layerStats{}
	for _, ph := range phases {
		for _, v := range ph.misses {
			src, _ := serveModel(tpls, v.model)
			prog, err := smvlang.Parse(src)
			if err != nil {
				rep.fail("model %d does not parse: %v", v.model, err)
				continue
			}
			witnessProbe(v, prog.Sys, prog.LTLSpecs[0], ls, rep)
		}
	}
	ls.reportWitness(rep)
}

// promEngineWins reports verdictd_engine_wins_total by engine.
func promEngineWins(p promText, rep *report) {
	for _, e := range []string{"bmc", "k-induction", "bdd"} {
		rep.layer("mc.wins."+e, "count", p.sum("verdictd_engine_wins_total", `engine="`+e+`"`), -1)
	}
}

// witnessProbe replays a settled violated verdict's trace against the
// submitted model.
func witnessProbe(v verdictOf, sys *verdict.System, phi *verdict.LTL, ls *layerStats, rep *report) {
	ls.countWitness(v.resp.Witness)
	if res := v.resp.Result; res != nil && res.Trace != nil {
		ls.validateTrace(sys, phi, res.Trace, "settled "+v.id, rep)
	}
}

// routeLayer reports a route timer's percentiles.
func routeLayer(rt *routeTimer, route, name string, rep *report, qs ...float64) {
	xs := rt.get(route)
	for _, q := range qs {
		rep.pct(&rep.layers, fmt.Sprintf("%s_p%g", name, 100*q), xs, q)
	}
}

// diskProbe puts every settled body into a fresh DiskStore and gets
// each back, timing both.
func diskProbe(dir string, bodies [][]byte, rep *report) {
	ds, err := cache.NewDiskStore(dir)
	if err != nil {
		rep.fail("probe disk store: %v", err)
		return
	}
	var put, get []float64
	for i, b := range bodies {
		key := cache.Key(fmt.Sprint(i))
		t0 := time.Now()
		if err := ds.Put(key, b); err != nil {
			rep.fail("probe disk put: %v", err)
			return
		}
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for i, b := range bodies {
		key := cache.Key(fmt.Sprint(i))
		t0 := time.Now()
		got, ok, err := ds.Get(key)
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || !ok || string(got) != string(b) {
			rep.fail("probe disk get %d: ok=%v err=%v", i, ok, err)
			return
		}
	}
	rep.layer("cache.disk_put_us", "us", mean(put), len(put))
	rep.layer("cache.disk_get_us", "us", mean(get), len(get))
}

// journalAppendProbe bounds how many records the append probe re-writes
// (each append is fsync'd).
const journalAppendProbe = 200

// journalProbe replays a node's journal and re-appends its first
// records to a fresh fsync'd journal, timing both.
func journalProbe(dataDir, scratch string, rep *report) {
	var recs []journal.Record
	t0 := time.Now()
	st, err := journal.Replay(filepath.Join(dataDir, "journal"), func(r journal.Record) error {
		recs = append(recs, r)
		return nil
	})
	replay := ms(time.Since(t0))
	if err != nil {
		rep.fail("journal replay: %v", err)
		return
	}
	rep.layer("journal.records", "count", float64(st.Records), -1)
	rep.layer("journal.replay_ms", "ms", replay, -1)
	j, err := journal.Open(scratch, journal.Options{})
	if err != nil {
		rep.fail("probe journal: %v", err)
		return
	}
	defer j.Close()
	var app []float64
	for i, r := range recs {
		if i == journalAppendProbe {
			break
		}
		t0 := time.Now()
		if err := j.Append(r); err != nil {
			rep.fail("probe journal append: %v", err)
			return
		}
		app = append(app, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	rep.layer("journal.append_us", "us", mean(app), len(app))
}
