package server

import (
	"encoding/json"
	"errors"
	"strings"
	"time"

	"verdict/internal/abstract"
	"verdict/internal/mc"
	"verdict/internal/resilience"
)

// This file is verdictd's job lifecycle: the only code that creates,
// enqueues, runs, seals, publishes, or looks up a job. Every path —
// client submission, watch verify pass, journal replay, shadow
// promotion, work stealing, replicated and reconciled settlements —
// goes through four transitions:
//
//	accept  compiled work → a live job: in-flight table, queue, journal, replicas
//	run     a compiled check → an outcome, under the propagated deadline
//	settle  an outcome → a sealed, persisted, counted, published job
//	find    an id → its live or settled job: in-flight → LRU → disk
//
// A job moves accepted → queued → running → settled. A watch pass
// skips the queue (its session's goroutine runs it); a peer-owned
// acceptance is held as a shadow until promoted (accept, on the
// replica); a queued job handed to a thief (steal) comes back as the
// thief's snapshot (adopt → settle) or is requeued when the thief
// never answers. DESIGN.md §9 lists the invariants: durability before
// visibility, counters before wake, first settlement wins except on
// rejoin.

// origin says where an acceptance comes from. It alone decides how
// the job enters the queue and which durability steps accept owes.
type origin int

const (
	// fromClient is a POST /v1/checks submission: new traffic, so both
	// admission caps apply (Push). Journaled and replicated before the
	// 202.
	fromClient origin = iota
	// fromWatch is a watch-session verify pass: never queued (the
	// caller runs it inline), journaled and replicated like a
	// submission. Drain does not stop it — the session winds down in
	// Close.
	fromWatch
	// fromJournal is an unsettled job replayed at startup: already
	// journaled and replicated, and already promised, so Force.
	fromJournal
	// fromShadow is a dead owner's job promoted by its replica: Force,
	// and re-journaled under this node's ownership so a restart
	// re-enqueues it directly instead of re-shadowing it.
	fromShadow
)

// admission is what accept needs beyond the compiled check.
type admission struct {
	from origin
	id   string
	// req is the caller's copy of the request bytes: the journal and
	// the replicas get these, never j.reqJSON, which a fast settlement
	// may clear before the append runs.
	req   json.RawMessage
	owner string
	// tenant places the job in the fair queue; nil for watch passes,
	// which are journaled without one.
	tenant   *tenantState
	class    int
	deadline time.Time
}

// errDraining rejects new queued work once Drain has begun.
var errDraining = errors.New("draining: not accepting new checks")

// accept admits compiled work as a live job under a.id. A job already
// in flight under that id is returned instead (singleflight), with
// created false. Otherwise the new job enters the in-flight table and
// the queue together, under s.mu, so a worker can never pop a job the
// table does not hold; then its acceptance is journaled (fsync'd) and
// pushed to the replica set, so once the caller acknowledges the id,
// neither a crash nor the death of this node can lose the job.
func (s *Server) accept(cr *compiled, a admission) (j *job, created bool, err error) {
	s.mu.Lock()
	if cur, ok := s.inflight[a.id]; ok {
		s.mu.Unlock()
		return cur, false, nil
	}
	if s.draining && a.from != fromWatch {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	j = &job{id: a.id, owner: a.owner, class: a.class, deadline: a.deadline,
		check: cr, reqJSON: a.req, status: StatusQueued, done: make(chan struct{})}
	if a.tenant != nil {
		j.tenant = a.tenant.name
	}
	if a.from != fromWatch {
		j.acceptedAt = time.Now()
	}
	switch a.from {
	case fromClient:
		if err := s.sched.Push(j, a.tenant.weight, a.tenant.maxQueued); err != nil {
			s.mu.Unlock()
			return nil, false, err
		}
	case fromJournal, fromShadow:
		// Force, not Push: admission caps apply to new traffic, not to
		// work the daemon already promised (replay may enqueue more than
		// QueueDepth jobs) — but the job still lands in its tenant's fair
		// queue, so a restart or a failover does not let one tenant's
		// backlog jump ahead of everyone else's.
		s.sched.Force(j, a.tenant.weight)
	}
	s.inflight[j.id] = j
	s.mu.Unlock()
	if a.from != fromJournal {
		s.persistAccepted(j.id, a.req, j.owner, j.tenant)
	}
	if a.from == fromClient || a.from == fromWatch {
		s.replicateAccept(j, a.req)
	}
	return j, true, nil
}

// worker pops queued jobs until Drain closes the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// steal hands one queued job to an idle peer, bulk class first: extra
// fleet capacity goes to the backlog, while latency-sensitive work
// stays next in line for the local workers. The job stays in flight
// here (the client's promise is ours) and comes back either as the
// thief's settled snapshot (adopt) or, if the thief vanishes, through
// a watchdog that requeues it after twice the per-check ceiling.
func (s *Server) steal() (clusterStealMsg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return clusterStealMsg{}, false
	}
	j := s.sched.Steal()
	if j == nil || j.sealed || len(j.reqJSON) == 0 {
		// Nothing stealable; a popped-but-sealed job goes back to no one
		// (it is already settled).
		return clusterStealMsg{}, false
	}
	time.AfterFunc(2*s.cfg.DefaultTimeout+5*time.Second, func() { s.requeue(j) })
	return clusterStealMsg{ID: j.id, Request: j.reqJSON, Tenant: j.tenant,
		Class: classLabel(j.class), DeadlineMS: remainingMS(j.deadline)}, true
}

// requeue puts a stolen job that never came home back in its fair
// queue. Force: the job is already promised to a client. Gives up on
// drain (the journal re-enqueues it next boot).
func (s *Server) requeue(j *job) {
	s.mu.Lock()
	if j.sealed || s.draining {
		s.mu.Unlock()
		return
	}
	s.sched.Force(j, 0)
	s.mu.Unlock()
	s.cfg.Log.Printf("cluster: stolen job %s never came home; re-enqueued locally", j.id)
}

// runJob takes a queued job to running and settles what run returns.
// Workers call it on every pop; watch passes call it inline.
func (s *Server) runJob(j *job) {
	// Queue wait (acceptance → pickup) is the overload signal: it feeds
	// the histogram and the brownout ladder before the job runs. Watch
	// passes have a zero acceptedAt.
	if !j.acceptedAt.IsZero() {
		wait := time.Since(j.acceptedAt)
		s.hQueueWait.Observe(wait.Seconds(), classLabel(j.class))
		s.brown.Observe(wait)
	}
	s.mu.Lock()
	if j.sealed {
		// A peer settled this job while it sat in the queue (a stolen
		// job coming home, or a replicated verdict): nothing to run.
		s.mu.Unlock()
		return
	}
	j.status = StatusRunning
	cr := j.check
	s.mu.Unlock()
	s.settle(j, s.run(cr, j.deadline))
}

// deadlineExpired is the settlement of a job whose propagated deadline
// passed before any worker picked it up.
const deadlineExpired = "deadline expired before the check started; cancelled at worker pickup"

// outcome is one settlement on its way to settle.
type outcome struct {
	snap storedJob
	// res is what snap.Result decodes to; nil unless snap is done.
	res *mc.Result
	// local marks an outcome this node computed: settle replicates it
	// (adopting a conflicting fleet snapshot) and counts it. A peer's
	// settlement is neither re-replicated nor counted here.
	local bool
	// expired marks a deadline cancellation; elapsed is the check's
	// wall clock.
	expired bool
	elapsed time.Duration
}

// run executes a compiled check for the local worker or a work-stealing
// thief. A job whose deadline already passed is cancelled instead —
// running it would burn a worker on an answer nobody is waiting for —
// and a live deadline clamps the check's wall clock, so a job cannot
// outlive the budget its client stopped waiting at. A cancellation is
// a real settlement (replicated, journaled, published), so the 202 the
// client holds still resolves and a restart does not resurrect it.
func (s *Server) run(cr *compiled, deadline time.Time) outcome {
	opts := cr.opts
	if !deadline.IsZero() {
		rem := time.Until(deadline)
		if rem <= 0 {
			return outcome{snap: storedJob{Status: StatusFailed, Error: deadlineExpired}, local: true, expired: true}
		}
		opts.Timeout = min(opts.Timeout, rem)
	}
	s.gInflight.Add(1)
	start := time.Now()
	res, err := s.runCheck(cr, opts)
	elapsed := time.Since(start)
	s.gInflight.Add(-1)
	snap, res := buildSnapshot(res, err)
	return outcome{snap: snap, res: res, local: true, elapsed: elapsed}
}

// runCheck dispatches a compiled check under opts (the check's own,
// clamped to the job's deadline): the portfolio for concrete jobs, the
// quotient + CEGAR pipeline for abstracted scenarios. It is the single
// execution point for local runs, replayed journal jobs, and stolen
// cluster jobs, so the verdict_abstract_* metrics count refinement
// work wherever it happens — including runs whose refinement budget
// errors out partway (the partial trajectory is real work). The CEGAR
// pipeline runs behind the same panic guard as the portfolio path.
func (s *Server) runCheck(cr *compiled, opts mc.Options) (res *mc.Result, err error) {
	if cr.abs == nil {
		return s.cfg.Check(cr.sys, cr.phi, opts, cr.pol)
	}
	defer resilience.RecoverTo("verdictd-abstract", &err)
	ares, err := abstract.Check(*cr.abs, abstract.Options{MC: opts})
	if ares == nil {
		return nil, err
	}
	s.mAbsRefines.Add(float64(ares.Refinements))
	s.mAbsSpurious.Add(float64(ares.Spurious))
	if err != nil {
		return nil, err
	}
	return ares.Result, nil
}

// buildSnapshot turns a check outcome into the durable wire snapshot.
// The returned result is non-nil only for a done snapshot, and is
// exactly what the snapshot's Result bytes decode to.
func buildSnapshot(res *mc.Result, err error) (storedJob, *mc.Result) {
	snap := storedJob{Status: StatusFailed}
	switch {
	case err != nil:
		snap.Error = err.Error()
	case res == nil:
		snap.Error = "check returned no result"
	default:
		raw, merr := json.Marshal(res)
		if merr != nil {
			snap.Error = "result does not serialize: " + merr.Error()
			return snap, nil
		}
		snap.Status = StatusDone
		snap.Result = raw
		return snap, res
	}
	return snap, nil
}

// engineLabel collapses "portfolio/bmc" to "bmc" so the win counters
// name the engine that actually decided.
func engineLabel(engine string) string {
	if engine == "" {
		return "none"
	}
	return strings.TrimPrefix(engine, "portfolio/")
}

// settle is the only place a job is sealed. Whichever settlement
// claims the seal first — the local run or a peer's snapshot — is the
// one persisted and published; later ones are dropped. A local outcome
// is then counted and replicated. Counting comes first because a
// replicated verdict is already readable on the replicas: counters
// before wake must hold fleet-wide, not just for this node's waiters.
// The replication round trip doubles as conflict detection: if a
// replica already pinned different bytes for this id (the fleet
// settled it while this node was partitioned or restarting), those
// were published and ours were not, so adopt theirs. Then journal and
// store, and only then publish: a verdict a client can see survives a
// crash and the death of this node byte-identically.
func (s *Server) settle(j *job, out outcome) {
	s.mu.Lock()
	if j.sealed {
		s.mu.Unlock()
		return
	}
	j.sealed = true
	s.mu.Unlock()
	if out.local {
		s.count(j.id, out)
		if remote, conflict := s.replicateSettled(j.id, out.snap); conflict {
			if dec, ok := decodeStored(j.id, mustMarshal(remote)); ok {
				out.snap, out.res = remote, dec.result
			}
		}
	}
	s.persistSettled(j.id, out.snap)
	s.publish(j, out)
}

// count updates the settlement counters for a check this node ran —
// the check's own outcome, even if the fleet's snapshot replaces it —
// before the outcome leaves the node.
func (s *Server) count(id string, out outcome) {
	if out.expired {
		s.mExpired.Inc()
		s.mChecks.Inc("expired")
		return
	}
	verdict, engine := "error", "error"
	if r := out.res; out.snap.Status == StatusDone {
		verdict, engine = r.Status.String(), engineLabel(r.Engine)
		if r.Status != mc.Unknown {
			s.mWins.Inc(engine)
		} else if strings.Contains(r.Note, "budget exhausted") {
			s.mBudgetExh.Inc()
		}
		if r.Stats != nil && r.Stats.WitnessFailures > 0 {
			s.mWitnessBad.Add(float64(r.Stats.WitnessFailures))
		}
	}
	s.mChecks.Inc(verdict)
	s.hLatency.Observe(out.elapsed.Seconds(), engine)
	if out.snap.Error != "" {
		s.cfg.Log.Printf("check %s failed: %s", id, out.snap.Error)
	}
}

// publish makes a sealed, persisted settlement visible: the job moves
// from the in-flight table to the finished cache, its shadow (if this
// node held one) is dropped, and — last — its done channel closes.
func (s *Server) publish(j *job, out outcome) {
	s.mu.Lock()
	j.status = out.snap.Status
	j.errMsg = out.snap.Error
	if out.snap.Status == StatusDone {
		j.result = out.res
	}
	delete(s.inflight, j.id)
	// Settled jobs only serve status/error/result, so drop the compiled
	// check and the request before caching — CacheSize entries of large
	// models would otherwise stay pinned in memory.
	j.check, j.reqJSON = nil, nil
	s.finished.Add(j.id, j)
	s.mu.Unlock()
	s.removeShadow(j.id)
	close(j.done)
}

// adopt installs a settlement a peer computed. An id in flight here
// (a stolen job coming home, a job the fleet settled while this node
// also held it) is settled with it. Otherwise the snapshot is pinned
// unless one already is: the first settlement of an id wins everywhere
// it lands — except on rejoin, where overwrite defers to the bytes the
// fleet published while this node was down.
func (s *Server) adopt(id string, snap storedJob, overwrite bool) {
	s.removeShadow(id)
	// Round-trip through the store decoder so a garbage push can
	// neither settle nor overwrite anything.
	dec, ok := decodeStored(id, mustMarshal(snap))
	if !ok {
		return
	}
	j, live := s.find(id)
	if live {
		s.settle(j, outcome{snap: snap, res: dec.result})
		return
	}
	if j != nil && !overwrite {
		return
	}
	s.persistSettled(id, snap)
	s.mu.Lock()
	if _, live := s.inflight[id]; !live {
		if _, pinned := s.finished.Get(id); overwrite || !pinned {
			s.finished.Add(id, dec)
		}
	}
	s.mu.Unlock()
}

// find walks in-flight → finished LRU → disk once and returns the job
// holding id, with live set for an in-flight one. A disk hit is
// rehydrated into the LRU, so results survive both eviction and
// restarts; an unreadable snapshot is a miss, never an error.
func (s *Server) find(id string) (j *job, live bool) {
	s.mu.Lock()
	j, live = s.findLocked(id)
	s.mu.Unlock()
	d := s.durable
	if j != nil || d == nil {
		return j, live
	}
	raw, ok, err := d.store.Get(id)
	if err != nil || !ok {
		return nil, false
	}
	dj, ok := decodeStored(id, raw)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Lost a race against a concurrent restore or a re-run: keep
	// whatever is already live.
	if j, live = s.findLocked(id); j != nil {
		return j, live
	}
	s.finished.Add(id, dj)
	return dj, false
}

func (s *Server) findLocked(id string) (*job, bool) {
	if j, ok := s.inflight[id]; ok {
		return j, true
	}
	if v, ok := s.finished.Get(id); ok {
		return v.(*job), false
	}
	return nil, false
}
