package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"verdict/internal/server"
	"verdict/internal/watch/extract"
)

// watchIncidentLog bounds each session's retained incident log, so a
// session's journaled snapshot stays the same size however long the
// run lasts.
const watchIncidentLog = 16

// watchWarmBatches is how many no-op batches each session posts during
// set-up, before timing starts.
const watchWarmBatches = 200

// watchFixture is one set-up instance: a journaling single node with
// one live session per client, each past its setup and warm-up batches.
type watchFixture struct {
	n       *node
	clients []*client
}

func sessionID(i int) string { return fmt.Sprintf("perfbench-%d", i) }

// postBatch posts one batch to a session and long-polls until the
// batch is verified; it returns the batch's ingest sequence and the
// status the wait reported.
func (c *client) postBatch(session string, events []extract.Event) (uint64, server.WatchStatusResponse, error) {
	var st server.WatchStatusResponse
	body, _ := json.Marshal(server.WatchEventsRequest{Session: session, Events: events})
	code, _, raw, err := c.do("POST", "/v1/events", "", body)
	if err != nil {
		return 0, st, err
	}
	if code != http.StatusAccepted {
		return 0, st, fmt.Errorf("events: HTTP %d: %s", code, raw)
	}
	var ack server.WatchEventsResponse
	if err := json.Unmarshal(raw, &ack); err != nil {
		return 0, st, fmt.Errorf("events: %w", err)
	}
	code, _, raw, err = c.do("GET", fmt.Sprintf("/v1/watch/%s?wait_seq=%d", session, ack.Seq), "", nil)
	if err != nil {
		return ack.Seq, st, err
	}
	if code != http.StatusOK {
		return ack.Seq, st, fmt.Errorf("wait_seq %d: HTTP %d: %s", ack.Seq, code, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return ack.Seq, st, fmt.Errorf("watch status: %w", err)
	}
	if st.VerifiedSeq < ack.Seq {
		return ack.Seq, st, fmt.Errorf("wait_seq %d returned with verified_seq %d", ack.Seq, st.VerifiedSeq)
	}
	return ack.Seq, st, nil
}

// sessionStatus reads session g's status without waiting.
func (c *client) sessionStatus(g int) (server.WatchStatusResponse, error) {
	var st server.WatchStatusResponse
	code, _, raw, err := c.do("GET", "/v1/watch/"+sessionID(g), "", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", code, raw)
	}
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	if err != nil {
		return st, fmt.Errorf("session %d status: %w", g, err)
	}
	return st, nil
}

// verdicts returns every property's verdict in a status.
func verdicts(st server.WatchStatusResponse) map[string]string {
	out := map[string]string{}
	for _, p := range st.Props {
		out[p.Name] = p.Verdict
	}
	return out
}

func sameVerdicts(st server.WatchStatusResponse, want map[string]string) bool {
	got := verdicts(st)
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

func startWatchNode(dir string, rt *routeTimer) (*watchFixture, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The node journals every ingest and pass but skips the per-record
	// fsync (the server's setting for benchmarks): the workload measures
	// the verify path, and fsync latency on a shared disk swung this
	// workload's median by 40% between runs. The serve workload keeps
	// fsync on.
	n := startNode(server.Config{DataDir: dir, JournalNoSync: true, Log: quietLog}, ln, rt)
	f := &watchFixture{n: n}
	for i := 0; i < clients; i++ {
		c := newClient(n.url)
		f.clients = append(f.clients, c)
		body, _ := json.Marshal(server.WatchCreateRequest{ID: sessionID(i), IncidentLogMax: watchIncidentLog})
		code, _, raw, err := c.do("POST", "/v1/watch", "", body)
		if err == nil && code != http.StatusCreated {
			err = fmt.Errorf("creating session: HTTP %d: %s", code, raw)
		}
		if err != nil {
			n.stop()
			return nil, err
		}
		b := watchSetup(i)
		_, st, err := c.postBatch(sessionID(i), b.Events)
		if err == nil && !sameVerdicts(st, b.Want) {
			err = fmt.Errorf("session %d set-up: verdicts %v, want %v", i, verdicts(st), b.Want)
		}
		// Warm the session, its journal and the connection with
		// telemetry the extracted models ignore.
		for k := 0; err == nil && k < watchWarmBatches; k++ {
			_, _, err = c.postBatch(sessionID(i), []extract.Event{{Kind: extract.KindAnnotation, Name: "web", Note: "warm-up"}})
		}
		if err != nil {
			n.stop()
			return nil, err
		}
	}
	return f, nil
}

// watchTally is one session's progress against its script.
type watchTally struct {
	posted, runs, skipped, flips, incidents int
	// incidentAt is the scripted configuration after each posted batch
	// that must raise an incident, by the batch's ingest sequence.
	incidentAt map[uint64]watchState
}

func runWatch(r *run, rep *report) error {
	var rt *routeTimer
	if r.tr != nil {
		rt = newRouteTimer(r.tr)
	}
	var fx *watchFixture
	setup, teardown, err := repeatSetup(func(i int) (func(), error) {
		var err error
		fx, err = startWatchNode(filepath.Join(r.dir, fmt.Sprintf("node%d", i)), rt)
		if err != nil {
			return nil, err
		}
		return fx.n.stop, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if rt != nil {
		rt.reset()
	}
	streams := make([][]watchBatch, clients)
	for i := range streams {
		streams[i] = watchStream(r.seed, i, watchBatches(r.seconds))
	}

	before, err := scrape(http.DefaultClient, fx.n.url)
	if err != nil {
		return err
	}
	lat := newLatencies()
	tallies := make([]watchTally, clients)
	for g := range tallies {
		tallies[g].incidentAt = map[uint64]watchState{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	heap := sampleHeap()
	rtBefore := readRuntime()
	start := time.Now()
	deadline := start.Add(secondsDur(r.seconds))
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, t := fx.clients[g], &tallies[g]
			for i, b := range streams[g] {
				if time.Now().After(deadline) {
					return
				}
				opID := uint64(g)<<32 | uint64(i+1)
				root := r.tr.begin(opID, "watch.batch."+b.Class, -1)
				if r.tr != nil {
					c.op, c.parent = opID, root
				}
				t0 := time.Now()
				seq, st, err := c.postBatch(sessionID(g), b.Events)
				d := ms(time.Since(t0))
				r.tr.end(root)
				t.posted++
				mu.Lock()
				rep.attempted++
				switch {
				case err != nil:
					rep.fail("session %d batch %d: %v", g, i, err)
				case !sameVerdicts(st, b.Want):
					rep.fail("session %d batch %d (%s): verdicts %v, want %v", g, i, b.Class, verdicts(st), b.Want)
				}
				mu.Unlock()
				t.runs += b.Runs
				t.skipped += b.Skipped
				t.flips += b.Flips
				t.incidents += b.Incidents
				if b.Incidents > 0 {
					t.incidentAt[seq] = b.state
				}
				if err == nil {
					lat.add("all", d)
					lat.add(b.Class, d)
					lat.add("done", time.Since(start).Seconds())
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	peak := heap.peakMB()
	all := lat.get("all")
	if r.tr != nil {
		rtBefore.report(rep, len(all))
	}

	// Every wait has returned, so the sessions' counters are final; the
	// scrape waits for the metrics hooks, which fire after waiters wake.
	for g := range tallies {
		checkSessionCounters(fx.clients[g], g, tallies[g], rep)
	}
	after, err := scrapeSettled(fx.n.url, before, tallies)
	if err != nil {
		return err
	}
	diff := diffProm(before, after)

	rep.headline(setup, all, perSecondMedian(lat.get("done"), elapsed), peak)
	rep.pct(&rep.e2e, "event_ms_p50", all, 0.5)
	rep.pct(&rep.e2e, "event_ms_p99", all, 0.99)
	rep.metric("error_ratio", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	// Each class's own median, so a shift in the mix cannot hide a
	// change in a minority class.
	for _, c := range watchClassP50 {
		rep.pct(&rep.detail, "event_ms_p50."+c.class, lat.get(c.class), 0.5)
	}
	if r.tr != nil {
		watchLayers(fx, streams, tallies, lat, diff, rep, rt)
	}
	return nil
}

// checkSessionCounters compares a session's lifetime counters with its
// script: exactly the scripted re-checks, skips, flips and incidents
// (set-up adds two runs for its first batch and two skips per warm-up
// batch).
func checkSessionCounters(c *client, g int, t watchTally, rep *report) {
	rep.attempted++
	st, err := c.sessionStatus(g)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	got := st.Counters
	want := fmt.Sprintf("runs=%d skipped=%d flips=%d incidents=%d coalesced=0", t.runs+2, t.skipped+2*watchWarmBatches, t.flips, t.incidents)
	have := fmt.Sprintf("runs=%d skipped=%d flips=%d incidents=%d coalesced=%d", got.Runs, got.Skipped, got.Flips, got.Incidents, got.Coalesced)
	if have != want {
		rep.fail("session %d counters %s, script says %s", g, have, want)
	}
}

// scrapeSettled scrapes /metrics until the watch counters account for
// every posted batch: the session wakes ?wait_seq waiters before its
// metrics hooks fire, so a scrape right after the last wait can lag.
func scrapeSettled(url string, before promText, tallies []watchTally) (promText, error) {
	want := 0
	for _, t := range tallies {
		want += t.runs + t.skipped
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err := scrape(http.DefaultClient, url)
		if err != nil {
			return nil, err
		}
		d := diffProm(before, after)
		if int(d.sum("verdictd_watch_rechecks_total")) >= want || time.Now().After(deadline) {
			return after, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// watchLayers reports the watch workload's per-layer metrics.
func watchLayers(fx *watchFixture, streams [][]watchBatch, tallies []watchTally, lat *latencies, p promText, rep *report, rt *routeTimer) {
	run, skipped := p.sum("verdictd_watch_rechecks_total", `result="run"`), p.sum("verdictd_watch_rechecks_total", `result="skipped"`)
	rep.layer("watch.rechecks_run", "count", run, -1)
	rep.layer("watch.rechecks_skipped", "count", skipped, -1)
	rep.layer("watch.skip_ratio", "ratio", skipped/(run+skipped), -1)
	rep.layer("watch.flips", "count", p.sum("verdictd_watch_verdict_flips_total"), -1)
	rep.layer("watch.incidents", "count", p.sum("verdictd_watch_incidents_total"), -1)
	rep.layer("watch.coalesced", "count", p.sum("verdictd_watch_events_coalesced_total"), -1)
	for _, c := range watchClassP50 {
		rep.pct(&rep.layers, c.name, lat.get(c.class), 0.5)
	}
	promEngineWins(p, rep)
	// A watch re-check looks the rendered property up in the result
	// cache without touching the submission counters: the checks that
	// actually ran are the misses, the other re-checks were hits.
	misses := p.sum("verdictd_checks_total")
	rep.layer("cache.hits", "count", run-misses, -1)
	rep.layer("cache.misses", "count", misses, -1)
	journalProbe(fx.n.cfg.DataDir, filepath.Join(fx.n.cfg.DataDir, "..", "probe-journal"), rep)
	rep.layer("journal.bytes", "bytes", p.sum("verdictd_journal_bytes"), -1)
	routeLayer(rt, "events", "server.events_ms", rep, 0.5, 0.99)
	routeLayer(rt, "watch_wait", "server.watch_wait_ms", rep, 0.5)

	// The same streams, replayed through the extraction layer alone:
	// Apply per event and Extract per batch, as a session does.
	var applyUS, extractUS []float64
	var models []probeModel
	seen := map[string]bool{}
	for g, stream := range streams {
		cfg := extract.NewConfig()
		for i, b := range append([]watchBatch{watchSetup(g)}, stream[:tallies[g].posted]...) {
			for _, ev := range b.Events {
				t0 := time.Now()
				if err := cfg.Apply(ev); err != nil {
					rep.fail("session %d batch %d: apply: %v", g, i, err)
				}
				applyUS = append(applyUS, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			t0 := time.Now()
			props, err := extract.Extract(cfg)
			extractUS = append(extractUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				rep.fail("session %d batch %d: extract: %v", g, i, err)
				continue
			}
			for _, pr := range props {
				if !seen[pr.Source] {
					seen[pr.Source] = true
					models = append(models, probeModel{src: pr.Source})
				}
			}
		}
	}
	rep.layer("extract.apply_us", "us", mean(applyUS), len(applyUS))
	rep.layer("extract.extract_us", "us", mean(extractUS), len(extractUS))
	probeModels(models, rep)
	watchWitness(fx, tallies, rep)
}

// watchWitness checks each session's retained incidents against the
// script: every incident must fall on a batch the script says raises
// one, and its counterexample must replay through the model of that
// batch's configuration.
func watchWitness(fx *watchFixture, tallies []watchTally, rep *report) {
	ls := &layerStats{}
	for g, c := range fx.clients {
		st, err := c.sessionStatus(g)
		if err != nil {
			rep.fail("%v", err)
			continue
		}
		for _, inc := range st.Incidents {
			ls.countWitness(inc.Witness)
			what := fmt.Sprintf("session %d incident on %s at seq %d", g, inc.Property, inc.Seq)
			w, ok := tallies[g].incidentAt[inc.Seq]
			if !ok {
				rep.fail("%s: the script raises no incident there", what)
				continue
			}
			sys, phi, err := w.model(inc.Property)
			if err != nil || inc.Trace == nil {
				rep.fail("%s: no trace or no model (%v)", what, err)
				continue
			}
			ls.validateTrace(sys, phi, inc.Trace, what, rep)
		}
	}
	ls.reportWitness(rep)
}
