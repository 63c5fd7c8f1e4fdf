package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"verdict/internal/cluster"
	"verdict/internal/journal"
)

// This file is verdictd's cluster mode: the wiring between the
// serving core and internal/cluster that turns N independent daemons
// into one fault-tolerant verification service.
//
// Routing. Every job's identity is its content address, and the
// consistent-hash ring maps every address to an owning node. A
// submission landing on a non-owner is forwarded (proxied) to the
// owner, so the owner's singleflight and result cache dedup identical
// work cluster-wide. The X-Verdict-Forwarded header is the loop
// guard: a forwarded request is never forwarded again, whatever the
// receiving node thinks the ring looks like — at worst a stale view
// costs one extra hop, never a cycle.
//
// Replication. Acceptance and settlement both replicate to the R-1
// ring successors of the job's address *before* the client can
// observe them: accept pushes an acceptance to R nodes before the
// 202, and settle pushes a settled verdict to R nodes before it
// becomes visible (lifecycle.go). Either can therefore survive the
// owner's death. Replicas hold peer-owned acceptances as "shadows" —
// journaled but not executed — and promote them through accept only
// when the failure detector declares the owner dead.
//
// Reads. GET /v1/checks/{id} that misses locally is proxied around
// the id's replica set (owner first), so a client can ask any node
// for any verdict.
//
// Work stealing. An idle node polls a random healthy peer's
// /v1/cluster/steal; an overloaded peer hands over one queued job,
// the thief runs it (the same run as a local worker) and pushes the
// settled snapshot back, which the victim settles like any peer
// snapshot. The victim keeps the job journaled and in flight, and
// requeues it if the thief vanishes.

// forwardHeader marks a request that already made one routing hop.
const forwardHeader = "X-Verdict-Forwarded"

// stealInterval is how often an idle node goes looking for work.
const stealInterval = 250 * time.Millisecond

// shadowJob is a peer-owned acceptance held by a replica: enough to
// re-journal it at compaction and to promote it if the owner dies.
// Tenant rides along so a promoted job lands in the right fair queue,
// and Deadline so it keeps its client's budget. Deadline lives in
// memory only: a shadow replayed from the journal has none, as a
// replayed local job has none.
type shadowJob struct {
	Request  json.RawMessage
	Owner    string
	Tenant   string
	Deadline time.Time
}

// clusterState bundles the routing brain with the server-side pieces:
// HTTP clients, the shadow table, and the rebalance trigger.
type clusterState struct {
	c *cluster.Cluster
	// push is the short-deadline client for replication and steal
	// polls; proxy has no global timeout because forwarded requests
	// (long-poll status reads) are bounded by their own context.
	push  *http.Client
	proxy *http.Client

	mu      sync.Mutex
	shadows map[string]shadowJob // id → peer-owned acceptance

	rebalance chan struct{} // coalesced rebalance kicks
	rng       *rand.Rand
	rngMu     sync.Mutex
}

// Wire messages for the /v1/cluster/* internal endpoints. Deadlines
// travel as remaining milliseconds, not wall-clock instants, so nodes
// need no clock agreement; older nodes ignore the extra fields.
type clusterAcceptMsg struct {
	ID         string          `json:"id"`
	Owner      string          `json:"owner"`
	Request    json.RawMessage `json:"request"`
	Tenant     string          `json:"tenant,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

type clusterReplicateMsg struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

type clusterStealMsg struct {
	ID         string          `json:"id"`
	Request    json.RawMessage `json:"request"`
	Tenant     string          `json:"tenant,omitempty"`
	Class      string          `json:"class,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

// remainingMS renders a job deadline as the budget left on the wire;
// 0 means no deadline. Expired deadlines clamp to 1ms — the receiver
// should learn the deadline exists and cancel, not treat it as
// absent.
func remainingMS(deadline time.Time) int64 {
	if deadline.IsZero() {
		return 0
	}
	ms := time.Until(deadline).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// initCluster builds the cluster state from the config. A bad
// cluster config degrades to single-node mode with a loud log line —
// the same availability-over-everything stance as a bad data dir.
func (s *Server) initCluster(cfg Config) {
	c, err := cluster.New(cluster.Config{
		Self:          cfg.ClusterSelf,
		Peers:         cfg.ClusterPeers,
		Replication:   cfg.Replication,
		ProbeInterval: cfg.ClusterProbeInterval,
		OnChange: func(node string, st cluster.State) {
			cfg.Log.Printf("cluster: peer %s is now %s", node, st)
			s.kickRebalance()
		},
	})
	if err != nil {
		cfg.Log.Printf("cluster: %v; running single-node", err)
		return
	}
	s.cluster = &clusterState{
		c:         c,
		push:      &http.Client{Timeout: 2 * time.Second},
		proxy:     &http.Client{},
		shadows:   make(map[string]shadowJob),
		rebalance: make(chan struct{}, 1),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// startCluster launches probing and the background loops; called
// from New after journal replay so rebalancing sees restored state.
// Replayed verdicts are reconciled against the live fleet BEFORE the
// loops start (and before the caller begins serving): a restarting
// node's journal may hold a settlement that never reached its
// replicas — the fleet re-derived the job while we were down, and the
// fleet's bytes are the ones clients observed.
func (s *Server) startCluster() {
	cs := s.cluster
	if cs == nil {
		return
	}
	cs.c.Start()
	s.reconcileSettled()
	go s.stealLoop()
	go s.rebalanceLoop()
	s.cfg.Log.Printf("cluster: %s joined %d-node fleet (replication %d)",
		cs.c.Self(), len(cs.c.Members()), cs.c.Replication())
}

// reconcileSettled pushes every locally pinned verdict to its replica
// set and defers to any conflicting snapshot a replica answers with.
// Runs synchronously at (re)join, bounded by the push client's
// timeout: unreachable peers (a whole-fleet cold start) fail fast and
// leave the local copy standing.
func (s *Server) reconcileSettled() {
	keys := s.settledKeys()
	if len(keys) == 0 {
		return
	}
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	var adopted atomic.Int64
	for _, id := range keys {
		snap, ok := s.settledSnapshot(id)
		if !ok {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(id string, snap storedJob) {
			defer wg.Done()
			defer func() { <-sem }()
			if remote, conflict := s.replicateSettled(id, snap); conflict {
				s.adopt(id, remote, true)
				adopted.Add(1)
			}
		}(id, snap)
	}
	wg.Wait()
	if n := adopted.Load(); n > 0 {
		s.cfg.Log.Printf("cluster: rejoin reconciliation adopted %d verdict(s) the fleet settled while this node was down", n)
	}
}

func (s *Server) stopCluster() {
	if s.cluster != nil {
		s.cluster.c.Stop()
	}
}

func (s *Server) kickRebalance() {
	cs := s.cluster
	if cs == nil {
		return
	}
	select {
	case cs.rebalance <- struct{}{}:
	default: // a kick is already pending; one pass covers both
	}
}

// --- shadows ---

// addShadow records a peer-owned acceptance unless the id is already
// settled here (then the verdict, not the promise, is what we hold).
func (s *Server) addShadow(id string, sh shadowJob) {
	cs := s.cluster
	if cs == nil {
		return
	}
	if j, live := s.find(id); j != nil && !live {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.shadows[id] = sh
}

func (s *Server) removeShadow(id string) {
	cs := s.cluster
	if cs == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	delete(cs.shadows, id)
}

// shadowRecords snapshots the shadow table as journal records, for
// compaction's live set.
func (s *Server) shadowRecords() []journal.Record {
	cs := s.cluster
	if cs == nil {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	recs := make([]journal.Record, 0, len(cs.shadows))
	for id, sh := range cs.shadows {
		recs = append(recs, journal.Record{Type: journal.TypeAccepted, ID: id, Request: sh.Request, Owner: sh.Owner, Tenant: sh.Tenant})
	}
	return recs
}

// --- submission forwarding ---

// maybeForwardSubmit routes a fresh submission to the id's owner.
// Returns true when the response has been written (the forward
// succeeded); false means the caller must handle the job locally —
// either this node owns the id, the request already hopped once, or
// the owner is unreachable (availability beats placement).
func (s *Server) maybeForwardSubmit(w http.ResponseWriter, r *http.Request, id string, body []byte) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(forwardHeader) != "" {
		return false
	}
	owner := cs.c.Owner(id)
	if cs.c.IsSelf(owner) {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/checks", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, cs.c.Self())
	// The owner re-runs admission policy (auth, class, quota, brownout,
	// deadline) under its own state, so the tenant headers must survive
	// the hop.
	for _, h := range []string{"Authorization", HeaderClass, HeaderDeadline} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := cs.proxy.Do(req)
	if err != nil {
		s.cfg.Log.Printf("cluster: forwarding %s to owner %s failed (%v); handling locally", id, owner, err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		s.cfg.Log.Printf("cluster: owner %s answered %d for %s; handling locally", owner, resp.StatusCode, id)
		return false
	}
	s.mForwards.Inc()
	copyResponse(w, resp)
	return true
}

// proxyRead answers a status/trace read that missed locally by asking
// the id's replica set, owner first. Returns true once a node
// answered with anything but 404.
func (s *Server) proxyRead(w http.ResponseWriter, r *http.Request, id string) bool {
	cs := s.cluster
	if cs == nil || r.Header.Get(forwardHeader) != "" {
		return false
	}
	for _, node := range cs.c.ReadTargets(id) {
		url := node + r.URL.Path
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
		if err != nil {
			return false
		}
		req.Header.Set(forwardHeader, cs.c.Self())
		resp, err := cs.proxy.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		s.mForwards.Inc()
		copyResponse(w, resp)
		resp.Body.Close()
		return true
	}
	return false
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	// The owner's admission verdict — which KIND of 429 this is — must
	// reach the client intact, or a terminal quota rejection looks like
	// a retryable queue-full.
	for _, h := range []string{HeaderBrownout, HeaderQuotaReason, HeaderQuotaTenant, HeaderQuotaLimit} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// --- replication ---

// replicateAccept pushes a freshly accepted job to the other members
// of its replica set, synchronously, before the 202 is written: once
// the client holds the id, R nodes hold the promise, and any single
// node can die without losing it. Unreachable replicas are tolerated
// (they are probably dead, which is exactly when blocking acceptance
// would turn a node failure into an outage). reqJSON is the caller's
// own copy of the request: j.reqJSON is not read here, because a job
// that settles before the push has it cleared at settlement.
func (s *Server) replicateAccept(j *job, reqJSON json.RawMessage) {
	cs := s.cluster
	if cs == nil {
		return
	}
	body, err := json.Marshal(clusterAcceptMsg{ID: j.id, Owner: cs.c.Self(), Request: reqJSON,
		Tenant: j.tenant, DeadlineMS: remainingMS(j.deadline)})
	if err != nil {
		return
	}
	s.pushToReplicas(j.id, "/v1/cluster/accept", body, j.deadline)
}

// replicateSettled pushes a settled snapshot to the rest of the
// replica set before the verdict becomes visible — the cluster
// extension of "durability before visibility": a verdict a client
// saw is journaled on R nodes, so no single death can un-settle or
// re-derive it.
//
// The round-trip doubles as conflict detection: a replica that
// already pinned DIFFERENT bytes for this id answers 409 with its
// snapshot instead of adopting ours. That happens when this node's
// copy was never published — it settled locally, died before the
// push, and the fleet promoted the job's shadow and settled it again
// — so the replica's version is the one clients may have observed.
// Whether to defer to it is the caller's call: a pre-publication
// settlement (settle) and a node rejoining the fleet (startup
// reconcile) must adopt the fleet's bytes; a continuously-live node
// re-pushing during rebalance keeps its own.
func (s *Server) replicateSettled(id string, snap storedJob) (storedJob, bool) {
	cs := s.cluster
	if cs == nil {
		return storedJob{}, false
	}
	body, err := json.Marshal(clusterReplicateMsg{ID: id, Status: snap.Status, Error: snap.Error, Result: snap.Result})
	if err != nil {
		return storedJob{}, false
	}
	var (
		confMu   sync.Mutex
		conflict storedJob
		found    bool
	)
	var wg sync.WaitGroup
	for _, node := range cs.c.Replicas(id) {
		if cs.c.IsSelf(node) {
			continue
		}
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			var (
				raw []byte
				err error
			)
			for attempt := 0; attempt < 2; attempt++ {
				if raw, err = cs.postSettled(node+"/v1/cluster/replicate", body); err == nil {
					s.mReplications.Inc("ok")
					if raw != nil {
						var msg clusterReplicateMsg
						if json.Unmarshal(raw, &msg) == nil && msg.ID == id {
							confMu.Lock()
							if !found {
								conflict = storedJob{Status: msg.Status, Error: msg.Error, Result: msg.Result}
								found = true
							}
							confMu.Unlock()
						}
					}
					return
				}
			}
			s.mReplications.Inc("error")
			s.cfg.Log.Printf("cluster: replicating %s to %s failed: %v", id, node, err)
		}(node)
	}
	wg.Wait()
	return conflict, found
}

// pushToReplicas POSTs body to every non-self member of id's replica
// set, in parallel, two attempts each. A non-zero deadline stops the
// retry: past the client's budget nobody is waiting for the 202, so
// burning another RPC on it only deepens the overload.
func (s *Server) pushToReplicas(id, path string, body []byte, deadline time.Time) {
	cs := s.cluster
	var wg sync.WaitGroup
	for _, node := range cs.c.Replicas(id) {
		if cs.c.IsSelf(node) {
			continue
		}
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			var err error
			for attempt := 0; attempt < 2; attempt++ {
				if attempt > 0 && !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				if err = cs.post(node+path, body); err == nil {
					s.mReplications.Inc("ok")
					return
				}
			}
			s.mReplications.Inc("error")
			s.cfg.Log.Printf("cluster: replicating %s to %s failed: %v", id, node, err)
		}(node)
	}
	wg.Wait()
}

func (cs *clusterState) post(url string, body []byte) error {
	resp, err := cs.push.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// postSettled is post for the replicate endpoint: a 409 is not an
// error but the receiver's own pinned snapshot, returned for the
// caller to weigh.
func (cs *clusterState) postSettled(url string, body []byte) ([]byte, error) {
	resp, err := cs.push.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return nil, err
		}
		return raw, nil
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil, nil
}

// --- internal endpoints ---

// handleClusterAccept journals a peer-owned acceptance and shadows
// it: this node now guarantees the job survives the owner's death.
// The deadline is kept with the shadow (not journaled), so a promoted
// job still answers to its client's budget.
func (s *Server) handleClusterAccept(w http.ResponseWriter, r *http.Request) {
	var msg clusterAcceptMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&msg); err != nil || msg.ID == "" {
		writeError(w, http.StatusBadRequest, "bad accept message")
		return
	}
	s.persistAccepted(msg.ID, msg.Request, msg.Owner, msg.Tenant)
	s.addShadow(msg.ID, shadowJob{Request: msg.Request, Owner: msg.Owner, Tenant: msg.Tenant,
		Deadline: deadlineIn(msg.DeadlineMS)})
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterReplicate adopts a settled snapshot pushed by a peer:
// journal + store it and make the id servable here. Idempotent — a
// verdict already pinned locally is never overwritten, so the first
// settlement of an id wins everywhere it landed. A push whose bytes
// DIFFER from the local pin is answered 409 + the local snapshot:
// the pusher re-derived a verdict the fleet already published (it
// died or was partitioned between settling and replicating) and must
// defer to the observed bytes, never the other way around.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	var msg clusterReplicateMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&msg); err != nil || msg.ID == "" {
		writeError(w, http.StatusBadRequest, "bad replicate message")
		return
	}
	incoming := storedJob{Status: msg.Status, Error: msg.Error, Result: msg.Result}
	if local, ok := s.settledSnapshot(msg.ID); ok && !snapshotsEqual(local, incoming) {
		writeJSON(w, http.StatusConflict, clusterReplicateMsg{ID: msg.ID, Status: local.Status, Error: local.Error, Result: local.Result})
		return
	}
	s.adopt(msg.ID, incoming, false)
	w.WriteHeader(http.StatusNoContent)
}

func snapshotsEqual(a, b storedJob) bool {
	return a.Status == b.Status && a.Error == b.Error && bytes.Equal(a.Result, b.Result)
}

// handleClusterSteal hands one queued job to an idle peer (see steal).
func (s *Server) handleClusterSteal(w http.ResponseWriter, r *http.Request) {
	msg, ok := s.steal()
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.mSteals.Inc("victim")
	writeJSON(w, http.StatusOK, msg)
}

// --- background loops ---

// stealLoop polls a random healthy peer for surplus work whenever the
// local queue is empty.
func (s *Server) stealLoop() {
	ticker := time.NewTicker(stealInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		idle := !s.draining && s.sched.Len() == 0
		s.mu.Unlock()
		if idle {
			s.stealOnce()
		}
	}
}

// stealOnce asks one healthy peer for a job, runs it, and pushes the
// settled snapshot back to the victim (who owns the client promise
// and fans out replication).
func (s *Server) stealOnce() {
	cs := s.cluster
	var peers []string
	for _, n := range cs.c.Members() {
		if !cs.c.IsSelf(n) && cs.c.State(n) == cluster.Alive {
			peers = append(peers, n)
		}
	}
	if len(peers) == 0 {
		return
	}
	cs.rngMu.Lock()
	victim := peers[cs.rng.Intn(len(peers))]
	cs.rngMu.Unlock()

	resp, err := cs.push.Get(victim + "/v1/cluster/steal")
	if err != nil {
		return
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var msg clusterStealMsg
	if err := json.Unmarshal(raw, &msg); err != nil || msg.ID == "" {
		return
	}

	// The stolen job's remaining budget travels with it, and run treats
	// it exactly as a local worker would. run also keeps stolen
	// abstracted scenarios on the CEGAR pipeline — running the quotient
	// straight through the portfolio would return an unrefined (possibly
	// spurious) verdict.
	var snap storedJob
	if cr, err := s.recompile(msg.Request); err != nil {
		snap = storedJob{Status: StatusFailed, Error: fmt.Sprintf("stolen job does not compile: %v", err)}
	} else {
		// The thief counts the check it ran, as a local worker would,
		// before the victim can publish it.
		out := s.run(cr, deadlineIn(msg.DeadlineMS))
		s.count(msg.ID, out)
		snap = out.snap
	}
	body, err := json.Marshal(clusterReplicateMsg{ID: msg.ID, Status: snap.Status, Error: snap.Error, Result: snap.Result})
	if err != nil {
		return
	}
	for attempt := 0; attempt < 3; attempt++ {
		if cs.post(victim+"/v1/cluster/replicate", body) == nil {
			s.mSteals.Inc("thief")
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The victim's watchdog re-enqueues; the work is wasted, not lost.
	s.cfg.Log.Printf("cluster: could not return stolen job %s to %s", msg.ID, victim)
}

// rebalanceLoop reacts to ring changes: promote shadows this node now
// owns, and re-push local verdicts to their current replica sets.
func (s *Server) rebalanceLoop() {
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.cluster.rebalance:
		}
		s.rebalanceOnce()
	}
}

// rebalanceOnce runs one rebalancing pass.
func (s *Server) rebalanceOnce() {
	cs := s.cluster
	cs.mu.Lock()
	pending := make(map[string]shadowJob, len(cs.shadows))
	for id, sh := range cs.shadows {
		pending[id] = sh
	}
	cs.mu.Unlock()

	promoted := 0
	for id, sh := range pending {
		// Promote only jobs whose accepting owner is dead AND whose
		// current ownership falls to this node — otherwise the owner
		// (or a closer successor) is still responsible.
		if cs.c.State(sh.Owner) != cluster.Dead || !cs.c.OwnsLocally(id) {
			continue
		}
		if j, live := s.find(id); j != nil && !live {
			s.removeShadow(id)
			continue
		}
		if s.promoteShadow(id, sh) {
			promoted++
		}
	}

	// Re-replicate settled verdicts so the current successor set holds
	// every verdict this node does. Idempotent on the receivers; a 409
	// conflict is deliberately ignored here — a continuously-live node
	// keeps the bytes its clients observed, only (re)joining nodes and
	// pre-publication settlements defer (reconcileSettled, settle).
	repushed := 0
	for _, id := range s.settledKeys() {
		needed := false
		for _, node := range cs.c.Replicas(id) {
			if !cs.c.IsSelf(node) {
				needed = true
			}
		}
		if !needed {
			continue
		}
		snap, ok := s.settledSnapshot(id)
		if !ok {
			continue
		}
		s.replicateSettled(id, snap)
		repushed++
	}
	if promoted > 0 || repushed > 0 {
		s.cfg.Log.Printf("cluster: rebalance promoted %d shadowed job(s), re-replicated %d verdict(s)", promoted, repushed)
	}
}

// promoteShadow turns a dead peer's acceptance into a live local job
// under its original id and its client's deadline.
func (s *Server) promoteShadow(id string, sh shadowJob) bool {
	cr, err := s.recompile(sh.Request)
	if err != nil {
		s.cfg.Log.Printf("cluster: shadowed job %s does not compile (%v); leaving it journaled", id, err)
		return false
	}
	ten := s.tenants.lookup(sh.Tenant)
	_, created, _ := s.accept(cr, admission{from: fromShadow, id: id, req: sh.Request,
		owner: s.ownerURL(), tenant: ten, class: ten.class, deadline: sh.Deadline})
	if created {
		s.removeShadow(id)
	}
	return created
}

// settledKeys lists every locally pinned verdict id: the disk store
// when durable, the in-memory cache otherwise.
func (s *Server) settledKeys() []string {
	if d := s.durable; d != nil && !d.failed.Load() {
		keys, err := d.store.Keys()
		if err == nil {
			return keys
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished.Keys()
}

// settledSnapshot rebuilds the wire snapshot of a settled id for
// re-replication.
func (s *Server) settledSnapshot(id string) (storedJob, bool) {
	if d := s.durable; d != nil {
		if raw, ok, _ := d.store.Get(id); ok {
			var snap storedJob
			if json.Unmarshal(raw, &snap) == nil {
				return snap, true
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.finished.Get(id); ok {
		j := v.(*job)
		snap := storedJob{Status: j.status, Error: j.errMsg}
		if j.result != nil {
			if raw, err := json.Marshal(j.result); err == nil {
				snap.Result = raw
			}
		}
		if snap.Status == StatusDone && snap.Result == nil {
			return storedJob{}, false
		}
		return snap, true
	}
	return storedJob{}, false
}

// mustMarshal encodes a storedJob; by construction it always
// serializes (raw JSON + strings).
func mustMarshal(snap storedJob) []byte {
	raw, err := json.Marshal(snap)
	if err != nil {
		return []byte(`{"status":"failed","error":"snapshot does not serialize"}`)
	}
	return raw
}
