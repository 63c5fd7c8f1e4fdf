package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/resilience"
	"verdict/internal/ts"
)

// counterModel cycles x through 0..3; spec 0 is violated (with a
// counterexample trace), spec 1 holds.
const counterModel = `
MODULE m
VAR x : 0..3;
INIT x = 0;
TRANS next(x) = ite(x < 3, x + 1, 0);
LTLSPEC G (x <= 2);
LTLSPEC G (x <= 3);
`

// gate is an instrumented CheckFunc: it counts invocations, reports
// each start, and blocks until released — the scaffolding for the
// singleflight, admission, and drain tests.
type gate struct {
	calls   atomic.Int64
	started chan struct{}
	release chan struct{}
	result  *mc.Result
}

func newGate() *gate {
	return &gate{
		started: make(chan struct{}, 128),
		release: make(chan struct{}),
		result:  &mc.Result{Status: mc.Holds, Engine: "fake", Depth: 1},
	}
}

func (g *gate) check(*ts.System, *ltl.Formula, mc.Options, resilience.RetryPolicy) (*mc.Result, error) {
	g.calls.Add(1)
	g.started <- struct{}{}
	<-g.release
	r := *g.result
	return &r, nil
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ht := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ht.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	})
	return s, ht
}

func submit(t *testing.T, base string, req CheckRequest) (int, CheckResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/checks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, cr
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func waitDone(t *testing.T, base, id string) CheckResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var cr CheckResponse
		if code := getJSON(t, base+"/v1/checks/"+id+"?wait=1", &cr); code != http.StatusOK {
			t.Fatalf("GET check: status %d", code)
		}
		if cr.Status == StatusDone || cr.Status == StatusFailed {
			return cr
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("check did not settle in time")
	return CheckResponse{}
}

// TestEndToEndRealCheck drives the production CheckFunc: submit the
// violated spec, poll to done, read verdict and the full witness
// trace.
func TestEndToEndRealCheck(t *testing.T) {
	_, ht := newTestServer(t, Config{Workers: 2})
	code, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, cr)
	}
	if cr.ID == "" || cr.Status != StatusQueued {
		t.Fatalf("submit response: %+v", cr)
	}
	final := waitDone(t, ht.URL, cr.ID)
	if final.Status != StatusDone || final.Result == nil {
		t.Fatalf("final: %+v", final)
	}
	if final.Result.Status != mc.Violated {
		t.Fatalf("verdict: %v, want violated", final.Result.Status)
	}
	var tr struct {
		States    []map[string]any `json:"states"`
		LoopStart int              `json:"loop_start"`
	}
	if code := getJSON(t, ht.URL+"/v1/checks/"+cr.ID+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if len(tr.States) == 0 {
		t.Fatal("trace has no states")
	}

	// The second spec holds and is a distinct cache entry.
	code, cr2 := submit(t, ht.URL, CheckRequest{Model: counterModel, Spec: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit spec 1: status %d", code)
	}
	if cr2.ID == cr.ID {
		t.Fatal("different specs share a cache key")
	}
	if final2 := waitDone(t, ht.URL, cr2.ID); final2.Result.Status != mc.Holds {
		t.Fatalf("spec 1 verdict: %v, want holds", final2.Result.Status)
	}
}

// TestSingleflight is the acceptance bar: N identical concurrent
// submissions run ONE underlying check and count N-1 cache hits.
func TestSingleflight(t *testing.T) {
	g := newGate()
	s, ht := newTestServer(t, Config{Workers: 4, Check: g.check})

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
			ids[i] = cr.ID
		}(i)
	}
	wg.Wait()
	close(g.release)

	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical submissions got different ids: %v", ids)
		}
	}
	final := waitDone(t, ht.URL, ids[0])
	if final.Status != StatusDone || final.Result.Status != mc.Holds {
		t.Fatalf("final: %+v", final)
	}
	if calls := g.calls.Load(); calls != 1 {
		t.Errorf("underlying checks: %d, want 1 (singleflight)", calls)
	}
	if hits := s.mCacheHits.Value(); hits != n-1 {
		t.Errorf("cache hits: %v, want %d", hits, n-1)
	}
	if misses := s.mCacheMiss.Value(); misses != 1 {
		t.Errorf("cache misses: %v, want 1", misses)
	}
}

// TestCacheHitAfterCompletion: a resubmission of finished work is
// answered immediately from the LRU with the full result.
func TestCacheHitAfterCompletion(t *testing.T) {
	s, ht := newTestServer(t, Config{Workers: 1})
	_, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
	waitDone(t, ht.URL, cr.ID)

	code, again := submit(t, ht.URL, CheckRequest{Model: counterModel})
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", code)
	}
	if !again.Cached || again.Status != StatusDone || again.Result == nil {
		t.Fatalf("resubmit response: %+v", again)
	}
	if s.mCacheHits.Value() != 1 {
		t.Errorf("cache hits: %v, want 1", s.mCacheHits.Value())
	}
	// The canonical key ignores formatting: same model with different
	// whitespace/comments is the same content address.
	reformatted := strings.ReplaceAll(counterModel, "G (x <= 2)", "G  ( x   <= 2 )") + "\n-- a comment\n"
	code, third := submit(t, ht.URL, CheckRequest{Model: reformatted})
	if code != http.StatusOK || !third.Cached || third.ID != cr.ID {
		t.Fatalf("reformatted model missed the cache: status %d, %+v", code, third)
	}
}

// TestQueueFullRejects: with one worker busy and a one-slot queue, a
// third distinct submission is shed with 429 + Retry-After.
func TestQueueFullRejects(t *testing.T) {
	g := newGate()
	s, ht := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Check: g.check})
	defer close(g.release)

	model := func(i int) string {
		return fmt.Sprintf("MODULE m\nVAR x : 0..%d;\nINIT x = 0;\nTRANS next(x) = x;\nLTLSPEC G (x >= 0);\n", i+1)
	}
	if code, _ := submit(t, ht.URL, CheckRequest{Model: model(0)}); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	<-g.started // the worker is now busy with job 0
	if code, _ := submit(t, ht.URL, CheckRequest{Model: model(1)}); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	body, _ := json.Marshal(CheckRequest{Model: model(2)})
	resp, err := http.Post(ht.URL+"/v1/checks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.mRejections.Value() != 1 {
		t.Errorf("rejections: %v, want 1", s.mRejections.Value())
	}
	// A duplicate of the running job still dedupes rather than 429ing.
	if code, cr := submit(t, ht.URL, CheckRequest{Model: model(0)}); code != http.StatusOK || !cr.Cached {
		t.Errorf("duplicate of running job: status %d, %+v", code, cr)
	}
}

// TestDrain: SIGTERM semantics. Draining finishes queued and running
// jobs, keeps their results retrievable, and sheds new work with 503.
func TestDrain(t *testing.T) {
	g := newGate()
	s, ht := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Check: g.check})

	_, crA := submit(t, ht.URL, CheckRequest{Model: counterModel})
	<-g.started
	_, crB := submit(t, ht.URL, CheckRequest{Model: counterModel, Spec: 1})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Wait for the drain flag, then verify new submissions bounce.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hz struct {
			Draining bool `json:"draining"`
		}
		getJSON(t, ht.URL+"/healthz", &hz)
		if hz.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining flag never set")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body, _ := json.Marshal(CheckRequest{Model: "MODULE z\nVAR b : boolean;\nINIT b;\nTRANS next(b) = b;\nLTLSPEC G b;\n"})
	resp, err := http.Post(ht.URL+"/v1/checks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}

	close(g.release) // let the running and the queued job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// No results were lost: both jobs are done and retrievable.
	for _, id := range []string{crA.ID, crB.ID} {
		var cr CheckResponse
		if code := getJSON(t, ht.URL+"/v1/checks/"+id, &cr); code != http.StatusOK {
			t.Fatalf("GET after drain: %d", code)
		}
		if cr.Status != StatusDone || cr.Result == nil {
			t.Fatalf("job %s after drain: %+v", id, cr)
		}
	}
	if g.calls.Load() != 2 {
		t.Errorf("checks run: %d, want 2 (queued job must finish during drain)", g.calls.Load())
	}
}

func TestBadRequests(t *testing.T) {
	_, ht := newTestServer(t, Config{Workers: 1})
	cases := []CheckRequest{
		{},                                // no model
		{Model: "MODULE broken\nVAR x :"}, // parse error
		{Model: counterModel, Spec: 9},    // spec out of range
		{Model: counterModel, Property: "G (nosuchvar = 1)"}, // bad property
	}
	for _, req := range cases {
		if code, _ := submit(t, ht.URL, req); code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, code)
		}
	}
	if code := getJSON(t, ht.URL+"/v1/checks/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", code)
	}
	if code := getJSON(t, ht.URL+"/v1/checks/deadbeef/trace", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace id: %d, want 404", code)
	}
}

// TestExplicitProperty checks against an inline property referencing
// the model's scope, and that holds-verdicts have no trace endpoint.
func TestExplicitProperty(t *testing.T) {
	_, ht := newTestServer(t, Config{Workers: 1})
	code, cr := submit(t, ht.URL, CheckRequest{Model: counterModel, Property: "G (x <= 3)"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitDone(t, ht.URL, cr.ID)
	if final.Result.Status != mc.Holds {
		t.Fatalf("verdict: %v, want holds", final.Result.Status)
	}
	if code := getJSON(t, ht.URL+"/v1/checks/"+cr.ID+"/trace", nil); code != http.StatusNotFound {
		t.Errorf("trace of a holds verdict: %d, want 404", code)
	}
}

// TestSettlementCountedBeforeWake (white box): a waiter released by a
// job's settlement must already see that settlement in the counters,
// whether the job ran or was cancelled at pickup for an expired
// deadline. Waking first and counting after made every "settle, then
// scrape /metrics" assertion a race.
func TestSettlementCountedBeforeWake(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline time.Time
		counted  func(*Server) float64
	}{
		{"run", time.Time{}, func(s *Server) float64 {
			return min(s.mChecks.Value("holds"), s.mWins.Value("fake"))
		}},
		{"expired", time.Now().Add(-time.Second), func(s *Server) float64 {
			return min(s.mChecks.Value("expired"), s.mExpired.Value())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, Check: newInstantOK()})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Drain(ctx)
				s.Close()
			}()
			cr, err := s.compile(CheckRequest{Model: counterModel})
			if err != nil {
				t.Fatal(err)
			}
			ten := s.tenants.lookup("")
			j, _, err := s.accept(cr, admission{from: fromClient, id: cr.id, tenant: ten,
				class: ten.class, deadline: tc.deadline})
			if err != nil {
				t.Fatal(err)
			}
			<-j.done
			if got := tc.counted(s); got != 1 {
				t.Fatalf("settlement counters read %v right after the wake, want 1", got)
			}
		})
	}
}

// TestMetricsEndpoint scrapes /metrics after traffic and checks the
// exposition contains the families the ISSUE names.
func TestMetricsEndpoint(t *testing.T) {
	_, ht := newTestServer(t, Config{Workers: 1})
	_, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
	waitDone(t, ht.URL, cr.ID)
	submit(t, ht.URL, CheckRequest{Model: counterModel}) // cache hit

	resp, err := http.Get(ht.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"verdictd_requests_total{",
		"verdictd_cache_hits_total 1",
		"verdictd_cache_misses_total 1",
		`verdictd_checks_total{verdict="violated"} 1`,
		"verdictd_queue_depth 0",
		"verdictd_inflight_checks 0",
		"verdictd_engine_wins_total{",
		"verdictd_check_duration_seconds_bucket",
		"verdictd_cache_entries 1",
		// Cluster families register even single-node so dashboards can
		// template on them fleet-wide: the gauge reads 0, the counters
		// expose HELP/TYPE with no series yet.
		"verdictd_cluster_peers_healthy 0",
		"# TYPE verdictd_cluster_forwards_total counter",
		"# TYPE verdictd_cluster_replications_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCompileNormalization (white box): declaration order, formatting,
// and explicitly-spelled default options must not fragment the cache.
func TestCompileNormalization(t *testing.T) {
	s := New(Config{Check: newGate().check})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	}()
	a := "MODULE m\nVAR a : boolean;\n    b : boolean;\nINIT a & b;\nTRANS next(a) = a & next(b) = b;\nLTLSPEC G a;\n"
	bReordered := "MODULE m\nVAR b : boolean;\n    a : boolean;\nINIT a & b;\nTRANS next(a) = a & next(b) = b;\nLTLSPEC G a;\n"
	ca, err := s.compile(CheckRequest{Model: a})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := s.compile(CheckRequest{Model: bReordered})
	if err != nil {
		t.Fatal(err)
	}
	if ca.id != cb.id {
		t.Error("declaration order fragmented the cache key")
	}
	cd, err := s.compile(CheckRequest{Model: a, Options: OptionsRequest{MaxDepth: 25, TimeoutMS: 30_000}})
	if err != nil {
		t.Fatal(err)
	}
	if cd.id != ca.id {
		t.Error("explicitly-spelled default options fragmented the cache key")
	}
	ce, err := s.compile(CheckRequest{Model: a, Options: OptionsRequest{MaxDepth: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if ce.id == ca.id {
		t.Error("different depth must be a different cache key")
	}
}

// TestRetryCeilingClamped: retry_attempts is client-controlled, so the
// server clamps it and pins every attempt under the wall-clock
// ceiling — a request must not be able to hold a worker for longer
// than MaxRetryAttempts × DefaultTimeout.
func TestRetryCeilingClamped(t *testing.T) {
	s := New(Config{Check: newGate().check, DefaultTimeout: 10 * time.Second})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Drain(ctx)
		s.Close()
	}()
	opts, pol, _ := s.normalizeOptions(OptionsRequest{TimeoutMS: 1000, RetryAttempts: 1000})
	if pol.Attempts != 3 {
		t.Errorf("attempts: %d, want clamped to 3", pol.Attempts)
	}
	if pol.MaxScale != maxRetryScale {
		t.Errorf("MaxScale: %v, want %v", pol.MaxScale, maxRetryScale)
	}
	if opts.Timeout != 10*time.Second {
		t.Errorf("per-attempt ceiling: %v, want DefaultTimeout", opts.Timeout)
	}
	if opts.Budget.Time != time.Second {
		t.Errorf("base time budget: %v, want 1s", opts.Budget.Time)
	}
	// An over-limit ask and its clamped form are the same cache entry.
	over, err := s.compile(CheckRequest{Model: counterModel, Options: OptionsRequest{RetryAttempts: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := s.compile(CheckRequest{Model: counterModel, Options: OptionsRequest{RetryAttempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if over.id != clamped.id {
		t.Error("clamped retry counts fragmented the cache key")
	}
}

// TestFailedResultNotCached: a transient failure must not poison the
// content-addressed cache — resubmitting the same check re-runs it.
func TestFailedResultNotCached(t *testing.T) {
	var calls atomic.Int64
	flaky := func(*ts.System, *ltl.Formula, mc.Options, resilience.RetryPolicy) (*mc.Result, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("transient engine error")
		}
		return &mc.Result{Status: mc.Holds, Engine: "fake", Depth: 1}, nil
	}
	_, ht := newTestServer(t, Config{Workers: 1, Check: flaky})

	_, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
	if final := waitDone(t, ht.URL, cr.ID); final.Status != StatusFailed {
		t.Fatalf("first run: %+v, want failed", final)
	}
	// The failure stays retrievable by id...
	var byID CheckResponse
	if code := getJSON(t, ht.URL+"/v1/checks/"+cr.ID, &byID); code != http.StatusOK || byID.Status != StatusFailed {
		t.Fatalf("GET failed job: %d %+v", code, byID)
	}
	// ...but an identical resubmission re-runs instead of replaying it.
	code, again := submit(t, ht.URL, CheckRequest{Model: counterModel})
	if code != http.StatusAccepted || again.Cached {
		t.Fatalf("resubmit after failure: status %d, %+v, want a fresh 202 job", code, again)
	}
	final := waitDone(t, ht.URL, again.ID)
	if final.Status != StatusDone || final.Result == nil || final.Result.Status != mc.Holds {
		t.Fatalf("second run: %+v, want done/holds", final)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("underlying checks: %d, want 2 (failure must not be served from cache)", got)
	}
}

// TestPropertyInjectionRejected: a property is one formula, not a
// splice point — extra LTLSPEC sections or declarations smuggled in
// through it must 400, not silently check something else.
func TestPropertyInjectionRejected(t *testing.T) {
	_, ht := newTestServer(t, Config{Workers: 1})
	for _, prop := range []string{
		"G (x <= 2);\nLTLSPEC\n  G (x <= 1)",  // second spec: verdict would answer the wrong formula
		"G (x <= 2);\nCTLSPEC\n  AG (x <= 1)", // smuggled CTL section
	} {
		if code, _ := submit(t, ht.URL, CheckRequest{Model: counterModel, Property: prop}); code != http.StatusBadRequest {
			t.Errorf("property %q: status %d, want 400", prop, code)
		}
	}
	// A plain property still works.
	if code, _ := submit(t, ht.URL, CheckRequest{Model: counterModel, Property: "G (x <= 3)"}); code != http.StatusAccepted {
		t.Errorf("plain property: status %d, want 202", code)
	}
}

// TestSettledJobsDropModel (white box): the result cache serves only
// status/error/result, so cached entries must not pin the parsed
// system or formula.
func TestSettledJobsDropModel(t *testing.T) {
	s, ht := newTestServer(t, Config{Workers: 1})
	_, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
	waitDone(t, ht.URL, cr.ID)
	v, ok := s.finished.Get(cr.ID)
	if !ok {
		t.Fatal("settled job not in the result cache")
	}
	j := v.(*job)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.check != nil {
		t.Error("cached job still pins the parsed system/formula")
	}
	if j.result == nil {
		t.Error("cached job lost its result")
	}
}

// TestFailedCheckSurfaces: a CheckFunc error lands as status=failed
// with the message, not a hung job.
func TestFailedCheckSurfaces(t *testing.T) {
	boom := func(*ts.System, *ltl.Formula, mc.Options, resilience.RetryPolicy) (*mc.Result, error) {
		return nil, fmt.Errorf("engine exploded")
	}
	_, ht := newTestServer(t, Config{Workers: 1, Check: boom})
	_, cr := submit(t, ht.URL, CheckRequest{Model: counterModel})
	final := waitDone(t, ht.URL, cr.ID)
	if final.Status != StatusFailed || !strings.Contains(final.Error, "engine exploded") {
		t.Fatalf("final: %+v", final)
	}
}
