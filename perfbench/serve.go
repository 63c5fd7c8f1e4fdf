package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"verdict"
	"verdict/internal/server"
	"verdict/internal/smvlang"
	"verdict/internal/witness"
)

// serveTenants are the fleet's two tenants: one interactive-class and
// one bulk-class, unthrottled so that any 429 is a real overload.
var serveTenants = []server.TenantConfig{
	{Name: "interactive", Token: "perfbench-interactive", Class: "interactive"},
	{Name: "bulk", Token: "perfbench-bulk", Class: "bulk"},
}

// serveTemplate is a cheap model a cache miss submits, made distinct
// per request by renaming one identifier to a numbered one: the
// content address changes, the check cost does not.
type serveTemplate struct {
	name   string
	src    string
	rename *regexp.Regexp
	ident  string
	want   string // the verdict every rename must get
}

// serveTemplates loads the miss models: the repository's
// replica-guard example and canonical renders of built-in k8s models.
func serveTemplates() ([]serveTemplate, error) {
	guard, err := os.ReadFile(filepath.Join("examples", "models", "replica-guard.vsmv"))
	if err != nil {
		return nil, fmt.Errorf("reading the replica-guard example: %w", err)
	}
	render := func(sys *verdict.System, phi *verdict.LTL) (string, error) {
		return smvlang.Canonical(&smvlang.Program{Sys: sys, LTLSpecs: []*verdict.LTL{phi}})
	}
	ds := verdict.BuildDescheduler(verdict.DeschedulerConfig{RequestCPU: 50, Threshold: 45})
	dsOK := verdict.BuildDescheduler(verdict.DeschedulerConfig{RequestCPU: 40, Threshold: 45})
	tl := verdict.BuildTaintLoop(verdict.TaintLoopConfig{})
	hpa, err := verdict.BuildHPASurge(verdict.HPASurgeConfig{MaxReplicas: 8, InitialDesired: 2, MaxSurge: 1})
	if err != nil {
		return nil, err
	}
	out := []serveTemplate{{name: "replica-guard", src: string(guard), ident: "replicas", want: "violated"}}
	for _, m := range []struct {
		name, ident, want string
		sys               *verdict.System
		phi               *verdict.LTL
	}{
		{"descheduler/50>45", "pod_loc", "violated", ds.Sys, ds.Property},
		{"descheduler/40<=45", "pod_loc", "holds", dsOK.Sys, dsOK.Property},
		{"taint-loop", "pod_loc", "violated", tl.Sys, tl.Property},
		{"hpa-surge/fixed", "desired", "holds", hpa.Sys, hpa.Property},
	} {
		src, err := render(m.sys, m.phi)
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", m.name, err)
		}
		out = append(out, serveTemplate{name: m.name, src: src, ident: m.ident, want: m.want})
	}
	for i := range out {
		out[i].rename = regexp.MustCompile(`\b` + out[i].ident + `\b`)
		if !out[i].rename.MatchString(out[i].src) {
			return nil, fmt.Errorf("template %s has no identifier %q to rename", out[i].name, out[i].ident)
		}
	}
	return out, nil
}

// model returns model number i's source and expected verdict.
func serveModel(tpls []serveTemplate, i int) (string, string) {
	t := tpls[i%len(tpls)]
	return t.rename.ReplaceAllString(t.src, fmt.Sprintf("%s_m%06d", t.ident, i)), t.want
}

// node is one verdictd of the fleet, served on a loopback listener.
type node struct {
	cfg  server.Config
	srv  *server.Server
	hs   *http.Server
	url  string
	addr string
	done chan struct{}
}

// startNode builds a server.Server for cfg and serves it on ln.
func startNode(cfg server.Config, ln net.Listener, rt *routeTimer) *node {
	n := &node{cfg: cfg, url: "http://" + ln.Addr().String(), addr: ln.Addr().String(), done: make(chan struct{})}
	n.srv = server.New(cfg)
	var h http.Handler = n.srv.Handler()
	if rt != nil {
		h = rt.wrap(h)
	}
	n.hs = &http.Server{Handler: h}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n
}

// stop drains the node's checks, closes it, and waits for its HTTP
// server to exit.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	n.srv.Drain(ctx)
	n.srv.Close()
	<-n.done
}

// quietLog discards the servers' operational log lines.
var quietLog = log.New(io.Discard, "", 0)

// startFleet starts the 2-node durable, replicated fleet under dir.
func startFleet(dir string, rt *routeTimer) ([]*node, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var nodes []*node
	for i, ln := range lns {
		cfg := server.Config{
			DataDir:      filepath.Join(dir, fmt.Sprintf("node%d", i)),
			ClusterSelf:  urls[i],
			ClusterPeers: []string{urls[1-i]},
			Replication:  2,
			Tenants:      serveTenants,
			// Peers are probed only when a node starts. A set-up restart
			// would otherwise show the peer as Suspect and then Alive,
			// and each change re-replicates every settled verdict in the
			// background, into the timed phases.
			ClusterProbeInterval: time.Hour,
			Log:                  quietLog,
		}
		nodes = append(nodes, startNode(cfg, ln, rt))
	}
	return nodes, nil
}

// client is one load-generator goroutine's connection to one node.
// In a traced run, op and parent name the client span the next
// requests belong to; the node's route timer nests its span under it.
type client struct {
	hc     *http.Client
	base   string
	op     uint64
	parent int
}

// Headers carrying the client span to the route timer.
const (
	headerOp     = "X-Perfbench-Op"
	headerParent = "X-Perfbench-Parent"
)

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// do sends one request and reads the whole response.
func (c *client) do(method, path, token string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.op != 0 {
		req.Header.Set(headerOp, strconv.FormatUint(c.op, 10))
		req.Header.Set(headerParent, strconv.Itoa(c.parent))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// verdictOf is a settled check as the client sees it.
type verdictOf struct {
	model      int
	id, status string
	cached     bool
	raw        []byte // the settled GET body, for the byte-identical re-read check
	resp       server.CheckResponse
}

// submit posts a model and, for a 202, long-polls the job until it
// settles. Every error, refusal, or brownout mark is returned as an
// error: the caller counts it failed, never as a fast latency.
func (c *client) submit(model, token string) (verdictOf, error) {
	body, _ := json.Marshal(server.CheckRequest{Model: model})
	code, hdr, raw, err := c.do("POST", "/v1/checks", token, body)
	if err != nil {
		return verdictOf{}, err
	}
	if hdr.Get(server.HeaderBrownout) != "" {
		return verdictOf{}, fmt.Errorf("brownout level %s", hdr.Get(server.HeaderBrownout))
	}
	var cr server.CheckResponse
	if code != http.StatusOK && code != http.StatusAccepted {
		return verdictOf{}, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &cr); err != nil {
		return verdictOf{}, fmt.Errorf("submit: %w", err)
	}
	v := verdictOf{id: cr.ID, cached: cr.Cached}
	for cr.Status != server.StatusDone {
		if cr.Status == server.StatusFailed {
			return v, fmt.Errorf("check %s failed: %s", cr.ID, cr.Error)
		}
		code, _, raw, err = c.do("GET", "/v1/checks/"+cr.ID+"?wait=1", token, nil)
		if err != nil {
			return v, err
		}
		if code != http.StatusOK {
			return v, fmt.Errorf("wait %s: HTTP %d: %s", cr.ID, code, bytes.TrimSpace(raw))
		}
		cr = server.CheckResponse{}
		if err := json.Unmarshal(raw, &cr); err != nil {
			return v, fmt.Errorf("wait: %w", err)
		}
	}
	v.status, v.resp, v.raw = cr.Result.Status.String(), cr, raw
	return v, nil
}

// read fetches a settled job's status body.
func (c *client) read(id, token string) ([]byte, error) {
	code, _, raw, err := c.do("GET", "/v1/checks/"+id, token, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("read %s: HTTP %d", id, code)
	}
	return raw, nil
}

// serveFixture is one set-up instance: a warmed fleet plus clients.
type serveFixture struct {
	nodes   []*node
	clients []*client
}

// settle checks one model through c and applies the verdict oracle.
func settle(c *client, tpls []serveTemplate, model int, token string) (verdictOf, error) {
	src, want := serveModel(tpls, model)
	v, err := c.submit(src, token)
	v.model = model
	if err != nil {
		return v, err
	}
	if v.status != want {
		return v, fmt.Errorf("model %d (%s): verdict %s, want %s", model, tpls[model%len(tpls)].name, v.status, want)
	}
	if v.resp.Witness == witness.Failed.String() {
		return v, fmt.Errorf("model %d: witness validation failed", model)
	}
	return v, nil
}

// warmFleet starts a fleet under dir and settles the warm set: client
// g settles every clients-th model, so each node settles the same
// models whatever the timing.
func warmFleet(dir string, tpls []serveTemplate, rt *routeTimer) (*serveFixture, error) {
	nodes, err := startFleet(dir, rt)
	if err != nil {
		return nil, err
	}
	f := &serveFixture{nodes: nodes}
	for _, n := range nodes {
		f.clients = append(f.clients, newClient(n.url))
	}
	err = f.eachClient(func(g int, c *client, stop *atomic.Bool) error {
		for m := g; m < serveWarm && !stop.Load(); m += clients {
			if _, err := settle(c, tpls, m, serveTenants[m%len(serveTenants)].Token); err != nil {
				return fmt.Errorf("warming: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// restart is one serve set-up: a rolling restart of the fleet on its
// data directories and addresses, node by node (stop, journal replay,
// rejoin reconciliation against the peer that stayed up), followed by
// reloading the working set into memory: each client resubmits every
// warm model to its node, in warm order, so each node's result LRU
// ends up holding the most recent models, as after warmFleet. Every
// resubmission must be answered from cache with the known verdict.
func (f *serveFixture) restart(tpls []serveTemplate, rt *routeTimer) error {
	for i, o := range f.nodes {
		o.stop()
		n, err := reopen(o, rt)
		if err != nil {
			f.nodes = append(f.nodes[:i:i], f.nodes[i+1:]...)
			return err
		}
		f.nodes[i], f.clients[i] = n, newClient(n.url)
	}
	return f.eachClient(func(g int, c *client, stop *atomic.Bool) error {
		for m := 0; m < serveWarm && !stop.Load(); m++ {
			v, err := settle(c, tpls, m, serveTenants[m%len(serveTenants)].Token)
			if err == nil && !v.cached {
				err = fmt.Errorf("model %d was not answered from cache", m)
			}
			if err != nil {
				return fmt.Errorf("reloading node %d: %w", g, err)
			}
		}
		return nil
	})
}

// eachClient runs loop once per client, concurrently, and returns the
// first error; stop tells the other loops to give up.
func (f *serveFixture) eachClient(loop func(g int, c *client, stop *atomic.Bool) error) error {
	var stop atomic.Bool
	errs := make(chan error, len(f.clients))
	for g, c := range f.clients {
		go func(g int, c *client) { errs <- loop(g, c, &stop) }(g, c)
	}
	var err error
	for range f.clients {
		if e := <-errs; e != nil && err == nil {
			err = e
			stop.Store(true)
		}
	}
	return err
}

// reopen starts server.New again on a stopped node's data directory
// and address.
func reopen(old *node, rt *routeTimer) (*node, error) {
	ln, err := net.Listen("tcp", old.addr)
	if err != nil {
		return nil, fmt.Errorf("re-listening on %s: %w", old.addr, err)
	}
	return startNode(old.cfg, ln, rt), nil
}

func (f *serveFixture) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
}

// phaseResult is what one rate phase measured.
type phaseResult struct {
	hit, miss, late []float64 // ms, from the due time
	sent            []float64 // ms, every request from its send
	offeredRPS      float64
	achievedRPS     float64
	cpuS            float64  // the process's CPU time over the phase
	prom            promText // summed /metrics diff across the fleet
	brownoutMax     float64
	misses          []verdictOf
}

func runServe(r *run, rep *report) error {
	tpls, err := serveTemplates()
	if err != nil {
		return err
	}
	var rt *routeTimer
	if r.tr != nil {
		rt = newRouteTimer(r.tr)
	}
	// The warm set is settled once (warm_s); each timed set-up then
	// restarts the fleet on that data and reloads the working set.
	// Settling creates two fsync'd result files and writes four fsync'd
	// journal records per model, and the cost of those on a shared disk
	// swung by up to six times within minutes, far more than any other
	// step. The settle path is timed in the phases below instead
	// (verdict_ms_*, and in ops_per_s through the CPU it costs).
	t0 := time.Now()
	fx, err := warmFleet(filepath.Join(r.dir, "fleet"), tpls, rt)
	if err != nil {
		return err
	}
	warm := time.Since(t0).Seconds()
	defer func() { fx.stop() }()
	setup, _, err := repeatSetup(func(int) (func(), error) {
		return nil, fx.restart(tpls, rt)
	})
	if err != nil {
		return err
	}
	if rt != nil {
		rt.reset() // only the timed phases count
	}

	sched := serveSchedule(r.seed, r.seconds)
	heap := sampleHeap()
	before := readRuntime()
	var phases []*phaseResult
	for phase := 0; phase < 2; phase++ {
		var ops []serveOp
		for _, op := range sched {
			if op.Phase == phase {
				ops = append(ops, op)
			}
		}
		pr, err := servePhase(fx, tpls, ops, rep, r.tr)
		if err != nil {
			return err
		}
		phases = append(phases, pr)
	}
	peak := heap.peakMB()
	if r.tr != nil {
		before.report(rep, len(sched))
	}

	// Re-read a sample of settled verdicts from both nodes; every body
	// must be byte-identical to the one the client got when it settled.
	reads := rereadSample(fx, phases, rep)

	// recovery_s: close node 1, reopen it on its data dir, and time
	// until /healthz is ok and a settled id reads back identical.
	recovery, err := recoverNode(fx, 1, reads, rep, rt)
	if err != nil {
		return err
	}
	if r.tr != nil {
		serveLayers(fx, tpls, sched, phases, rep, rt)
	}

	p1, p2 := phases[0], phases[1]
	// op_ms_p50 times each nominal-rate request from its send, so the
	// load generator's own wake-up after sleeping until the due time is
	// left out: with the fleet in the same process it waits for the
	// CPUs the fleet's checks hold, and timed from the due time the
	// median spread by 0.38 (quartile distance over median, ten seeds)
	// against 0.15 and 0.09 from the send (two sets of ten seeds). The
	// due-time latencies (hit_ms_*, verdict_ms_*) and how late requests
	// went out (load.late_ms_p99) are reported below, and a growing
	// lateness fails the run (checkBacklog).
	//
	// The open-loop schedule alone fixes how many requests complete per
	// wall-clock second (load.achieved_rps). The program's own rate is
	// requests per second of CPU time the process (fleet and load
	// generator) spent on them. The summed send-to-verdict time would
	// serve too, but it counts time a request waits for a CPU other
	// programs hold, and spread twice as much from run to run.
	rep.headline(setup, p1.sent, float64(len(p1.sent))/p1.cpuS, peak)
	rep.pct(&rep.e2e, "verdict_ms_p50", p1.miss, 0.5)
	rep.pct(&rep.e2e, "verdict_ms_p90", p1.miss, 0.9)
	rep.pct(&rep.e2e, "verdict_ms_p90_2x", p2.miss, 0.9)
	rep.pct(&rep.e2e, "hit_ms_p50", p1.hit, 0.5)
	rep.pct(&rep.e2e, "hit_ms_p99", p1.hit, 0.99)
	rep.pct(&rep.e2e, "hit_ms_p99_2x", p2.hit, 0.99)
	rep.metric("recovery_s", "s", recovery, 1)
	rep.metric("warm_s", "s", warm, 1)
	decided, tried := 0, 0
	for _, op := range sched {
		if !op.Hit {
			tried++
		}
	}
	for _, p := range phases {
		for _, v := range p.misses {
			if v.status == "holds" || v.status == "violated" {
				decided++
			}
		}
	}
	rep.metric("decided_ratio", "ratio", float64(decided)/float64(tried), tried)
	rep.metric("error_ratio", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	for i, p := range phases {
		sfx := []string{"", "_2x"}[i]
		rep.metric("load.offered_rps"+sfx, "1/s", p.offeredRPS, -1)
		rep.metric("load.achieved_rps"+sfx, "1/s", p.achievedRPS, -1)
		rep.pct(&rep.e2e, "load.late_ms_p99"+sfx, p.late, 0.99)
	}
	return nil
}

// servePhase replays one phase's open-loop schedule through the
// clients. Each request is timed from its due time, so a stall that
// delays later requests counts against them.
func servePhase(fx *serveFixture, tpls []serveTemplate, ops []serveOp, rep *report, tr *tracer) (*phaseResult, error) {
	before, err := scrapeFleet(fx)
	if err != nil {
		return nil, err
	}
	pr := &phaseResult{}
	cpu0 := cpuSeconds()
	lat := newLatencies()
	var failMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	missCh := make(chan verdictOf, len(ops)) // sized to the sends
	for g := 0; g < clients; g++ {
		wg.Add(1)
		// Client 0 sends the cache hits and client 1 the misses, each
		// to its own node over its own connection, so a hit never waits
		// in the generator behind a miss (whose median moved between 5
		// and 15 ms with the shared disk's load), and each node gets
		// the same requests whatever the timing.
		go func(g int, c *client) {
			defer wg.Done()
			for i, op := range ops {
				if op.Hit != (g == 0) {
					continue
				}
				due := start.Add(op.Due)
				sleepUntil(due)
				sent := time.Now()
				lat.add("late", ms(sent.Sub(due)))
				opID := uint64(i+1)<<1 | uint64(op.Phase)
				root := tr.begin(opID, map[bool]string{true: "serve.hit", false: "serve.miss"}[op.Hit], -1)
				if tr != nil {
					c.op, c.parent = opID, root
				}
				v, err := settle(c, tpls, op.Model, serveTenants[op.Tenant].Token)
				tr.end(root)
				done := time.Since(due)
				failMu.Lock()
				rep.attempted++
				switch {
				case err != nil:
					rep.fail("phase %d op %d: %v", op.Phase, i, err)
				case op.Hit && !v.cached:
					rep.fail("phase %d op %d: resubmission of model %d was not answered from cache", op.Phase, i, op.Model)
				}
				failMu.Unlock()
				if err != nil {
					continue
				}
				lat.add("sent", ms(time.Since(sent)))
				if op.Hit {
					lat.add("hit", ms(done))
				} else {
					lat.add("miss", ms(done))
					missCh <- v
				}
			}
		}(g, fx.clients[g])
	}
	wg.Wait()
	elapsed := time.Since(start)
	pr.cpuS = cpuSeconds() - cpu0
	close(missCh)
	for v := range missCh {
		pr.misses = append(pr.misses, v)
	}
	pr.hit, pr.miss, pr.late, pr.sent = lat.get("hit"), lat.get("miss"), lat.get("late"), lat.get("sent")
	pr.offeredRPS = float64(len(ops)) / ops[len(ops)-1].Due.Seconds()
	pr.achievedRPS = float64(len(pr.hit)+len(pr.miss)) / elapsed.Seconds()
	checkBacklog(pr.late, rep)
	// The phase has drained (every request got its verdict), so the
	// counters are complete; scrape and diff.
	after, err := scrapeFleet(fx)
	if err != nil {
		return nil, err
	}
	var diffs []promText
	for i := range after {
		diffs = append(diffs, diffProm(before[i], after[i]))
		if lvl := after[i].sum("verdictd_brownout_level"); lvl > pr.brownoutMax {
			pr.brownoutMax = lvl
		}
	}
	pr.prom = addProm(diffs...)
	if pr.brownoutMax > 0 {
		rep.fail("brownout level %g after a nominal-rate phase", pr.brownoutMax)
	}
	if rej := pr.prom.sum("verdictd_queue_rejections_total") + pr.prom.sum("verdictd_tenant_rejections_total"); rej > 0 {
		rep.fail("%g submissions refused during a nominal-rate phase", rej)
	}
	return pr, nil
}

// sleepUntil blocks until t in the kernel's nanosleep. time.Sleep
// would wake up to a millisecond late whenever the process is idle
// (the runtime waits for timers in epoll_wait, which counts whole
// milliseconds), so how late a request went out, and hence its
// latency, would depend on how busy the fleet happened to be.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// checkBacklog fails a phase whose generator fell steadily behind: a
// queue that grows at a nominal rate. It compares how late requests
// went out in the first and last fifth of the phase, in schedule order.
func checkBacklog(late []float64, rep *report) {
	if len(late) < 50 {
		return
	}
	fifth := len(late) / 5
	head := median(late[:fifth])
	tail := median(late[len(late)-fifth:])
	if tail > head+backlogSlackMS && tail > 2*head {
		rep.fail("backlog: requests went out %.1f ms late at the end of the phase vs %.1f ms at the start", tail, head)
	}
}

// backlogSlackMS is the lateness growth within a phase that counts as
// a growing queue.
const backlogSlackMS = 20

func scrapeFleet(fx *serveFixture) ([]promText, error) {
	var out []promText
	for _, n := range fx.nodes {
		p, err := scrape(http.DefaultClient, n.url)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", n.url, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// rereadSample reads every tenth miss back from both nodes and checks
// each body is byte-identical to the one the client received when the
// check settled; it returns the bodies by id.
func rereadSample(fx *serveFixture, phases []*phaseResult, rep *report) map[string][]byte {
	settled := map[string][]byte{}
	var ids []string
	for _, p := range phases {
		for i, v := range p.misses {
			if i%10 == 0 {
				ids = append(ids, v.id)
				settled[v.id] = v.raw
			}
		}
	}
	sort.Strings(ids)
	tok := serveTenants[0].Token
	reads := map[string][]byte{}
	for _, id := range ids {
		rep.attempted++
		ok := true
		for i, c := range fx.clients {
			got, err := c.read(id, tok)
			if err != nil {
				rep.fail("re-read %s from node %d: %v", id, i, err)
				ok = false
				break
			}
			if !bytes.Equal(got, settled[id]) {
				rep.fail("settled %s reads differently from node %d than when it settled", id, i)
				ok = false
				break
			}
		}
		if ok {
			reads[id] = settled[id]
		}
	}
	return reads
}

// recoverNode closes node i, reopens server.New on its data dir on the
// same address, and times until /healthz is ok and a settled id reads
// back byte-identical; then every sampled id is re-read from it.
func recoverNode(fx *serveFixture, i int, reads map[string][]byte, rep *report, rt *routeTimer) (float64, error) {
	if len(reads) == 0 {
		return 0, errors.New("no settled verdicts to re-read after recovery")
	}
	ids := make([]string, 0, len(reads))
	for id := range reads {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fx.nodes[i].stop()
	t0 := time.Now()
	n, err := reopen(fx.nodes[i], rt)
	if err != nil {
		return 0, err
	}
	fx.nodes[i] = n
	c := newClient(n.url)
	tok := serveTenants[0].Token
	for {
		code, _, raw, err := c.do("GET", "/healthz", "", nil)
		if err == nil && code == http.StatusOK && bytes.Contains(raw, []byte(`"status":"ok"`)) {
			break
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("node %d not healthy 30s after reopening", i)
		}
		time.Sleep(time.Millisecond)
	}
	for {
		got, err := c.read(ids[0], tok)
		if err == nil {
			if !bytes.Equal(got, reads[ids[0]]) {
				rep.fail("settled %s reads differently after recovery", ids[0])
			}
			break
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("settled %s unreadable 30s after reopening: %v", ids[0], err)
		}
		time.Sleep(time.Millisecond)
	}
	recovery := time.Since(t0).Seconds()
	for _, id := range ids {
		rep.attempted++
		got, err := c.read(id, tok)
		if err != nil {
			rep.fail("re-read %s after recovery: %v", id, err)
			continue
		}
		if !bytes.Equal(got, reads[id]) {
			rep.fail("settled %s reads differently after recovery", id)
		}
	}
	fx.clients[i] = c
	return recovery, nil
}

// routeTimer wraps a node's handler and records a span per request,
// named by route, so server and cluster time can be attributed.
type routeTimer struct {
	tr  *tracer
	mu  sync.Mutex
	dur map[string][]float64
}

func newRouteTimer(tr *tracer) *routeTimer { return &routeTimer{tr: tr, dur: map[string][]float64{}} }

func (rt *routeTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route := routeName(req)
		op, _ := strconv.ParseUint(req.Header.Get(headerOp), 10, 64)
		parent, err := strconv.Atoi(req.Header.Get(headerParent))
		if err != nil {
			parent = -1
		}
		sp := rt.tr.begin(op, "route."+route, parent)
		t0 := time.Now()
		h.ServeHTTP(w, req)
		d := ms(time.Since(t0))
		rt.tr.end(sp)
		rt.mu.Lock()
		rt.dur[route] = append(rt.dur[route], d)
		rt.mu.Unlock()
	})
}

// reset drops what set-up recorded: only the timed phases count.
func (rt *routeTimer) reset() {
	rt.mu.Lock()
	rt.dur = map[string][]float64{}
	rt.mu.Unlock()
	rt.tr.reset()
}

func (rt *routeTimer) get(route string) []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]float64(nil), rt.dur[route]...)
}

// routeName maps a request to its route: submit, wait (a long-poll),
// read, accept, replicate, events, watch_wait, or other.
func routeName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == "POST" && p == "/v1/checks":
		return "submit"
	case strings.HasPrefix(p, "/v1/checks/") && req.URL.Query().Get("wait") == "1":
		return "wait"
	case strings.HasPrefix(p, "/v1/checks/"):
		return "read"
	case p == "/v1/cluster/accept":
		return "accept"
	case p == "/v1/cluster/replicate":
		return "replicate"
	case p == "/v1/events":
		return "events"
	case strings.HasPrefix(p, "/v1/watch/") && req.URL.Query().Get("wait_seq") != "":
		return "watch_wait"
	}
	return "other"
}
