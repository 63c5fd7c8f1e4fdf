package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"verdict/internal/cache"
	"verdict/internal/journal"
	"verdict/internal/mc"
	"verdict/internal/resilience"
)

// This file is verdictd's crash-safety layer: the wiring between the
// serving core and internal/journal + the disk-backed result store.
//
// The lifecycle (lifecycle.go) decides when these run: accept
// journals an acceptance (fsync'd) before the 202 leaves the server,
// settle journals an outcome and stores its wire snapshot before the
// verdict becomes visible, and find reads an id that misses memory
// back from the result store. A client that saw an id or a verdict
// therefore sees the same id and the same bytes after a crash.
//
// Recovery. On startup the journal is replayed: settled records
// repair the result store (healing the crash window between the
// settled append and the store write), and accepted records without a
// settlement are recompiled and accepted again under their original
// content address. The replayed journal is then compacted down to
// just the still-live records.
//
// Degradation. Any disk failure — open, append, persist — switches
// the daemon to today's memory-only mode with a logged warning;
// nothing crashes, accepted work keeps running, only durability is
// lost (and visible as verdictd_journal_active 0).

// durability bundles the journal and the disk store. A nil
// *durability (no DataDir) is the memory-only daemon.
type durability struct {
	// mu serializes appends against compaction so a record can never
	// land in a segment the compactor is about to delete.
	mu    sync.Mutex
	j     *journal.Journal
	store *cache.DiskStore

	// failed flips once on the first disk error; every later
	// persistence call becomes a no-op (memory-only degradation).
	failed atomic.Bool

	corrupt    atomic.Int64 // damaged journal records skipped at replay
	replayed   atomic.Int64 // unsettled jobs re-enqueued at replay
	restored   atomic.Int64 // settled results restored/repaired at replay
	appendErrs atomic.Int64 // failed journal/store writes (→ degraded)

	bytesSinceCompact atomic.Int64
	compactThreshold  int64
}

// storedJob is the wire snapshot of a settled job kept in the disk
// store and inside settled journal records. Result stays raw JSON so
// a restored verdict is byte-identical to the one first served.
type storedJob struct {
	Status string          `json:"status"` // StatusDone or StatusFailed
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// openDurability opens the journal and result store under dataDir.
func openDurability(dataDir string, segmentSize int64, noSync bool) (*durability, error) {
	j, err := journal.Open(filepath.Join(dataDir, "journal"), journal.Options{SegmentSize: segmentSize, NoSync: noSync})
	if err != nil {
		return nil, err
	}
	store, err := cache.NewDiskStore(filepath.Join(dataDir, "results"))
	if err != nil {
		j.Close()
		return nil, err
	}
	if segmentSize <= 0 {
		segmentSize = journal.DefaultSegmentSize
	}
	return &durability{j: j, store: store, compactThreshold: 4 * segmentSize}, nil
}

// fail records a disk error and degrades to memory-only, once.
func (d *durability) fail(log interface{ Printf(string, ...any) }, op string, err error) {
	d.appendErrs.Add(1)
	if d.failed.CompareAndSwap(false, true) {
		log.Printf("durability: %s failed (%v); degrading to memory-only mode — results no longer survive a restart", op, err)
	}
}

// persistAccepted journals a newly admitted job before the caller
// acknowledges it. The injectable fault site models a crash-adjacent
// torn write: the chaos harness makes it fail exactly like a disk
// dying mid-append.
// The request bytes are passed explicitly rather than read from the
// job: a fast worker may settle the job (and clear its request field
// under s.mu) before this append runs. owner is the cluster node that
// promised the job to the client (empty single-node); a replica
// journaling a peer's acceptance records the peer's URL so replay
// shadows the job instead of re-enqueueing it. tenant names the
// admitting tenant so replay restores the fair-queue state (empty on
// records from peers or pre-multi-tenancy versions → default tenant).
func (s *Server) persistAccepted(id string, reqJSON json.RawMessage, owner, tenant string) {
	d := s.durable
	if d == nil || d.failed.Load() {
		return
	}
	if resilience.At(nil, "journal/append") == resilience.FaultExhaust {
		d.fail(s.cfg.Log, "journal append", fmt.Errorf("injected disk failure"))
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.j.Append(journal.Record{Type: journal.TypeAccepted, ID: id, Request: reqJSON, Owner: owner, Tenant: tenant}); err != nil {
		d.fail(s.cfg.Log, "journal append", err)
	}
}

// persistSettled durably records an id's outcome — journal first,
// then the result store — before the caller publishes it.
func (s *Server) persistSettled(id string, snap storedJob) {
	d := s.durable
	if d == nil || d.failed.Load() {
		return
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		d.fail(s.cfg.Log, "snapshot encode", err)
		return
	}
	d.mu.Lock()
	err = d.j.Append(journal.Record{Type: journal.TypeSettled, ID: id, Status: snap.Status, Error: snap.Error, Result: snap.Result})
	d.mu.Unlock()
	if err != nil {
		d.fail(s.cfg.Log, "journal append", err)
		return
	}
	if err := d.store.Put(id, raw); err != nil {
		d.fail(s.cfg.Log, "result store write", err)
		return
	}
	d.bytesSinceCompact.Add(int64(len(raw)))
	s.maybeCompact()
}

// maybeCompact rewrites the journal down to the live (unsettled)
// records once enough settled history has accumulated.
func (s *Server) maybeCompact() {
	d := s.durable
	if d == nil || d.failed.Load() || d.bytesSinceCompact.Load() < d.compactThreshold {
		return
	}
	if bytes, _ := d.j.Size(); bytes < d.compactThreshold {
		d.bytesSinceCompact.Store(0)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Snapshot the live set under s.mu while holding d.mu: a job
	// admitted after this point appends after the compactor's rotation
	// and lands in a segment the compactor will not delete.
	s.mu.Lock()
	live := make([]journal.Record, 0, len(s.inflight))
	for _, j := range s.inflight {
		live = append(live, journal.Record{Type: journal.TypeAccepted, ID: j.id, Request: j.reqJSON, Owner: j.owner, Tenant: j.tenant})
	}
	s.mu.Unlock()
	// Shadowed peer acceptances are live too: compacting them away
	// would silently drop this node's promise to cover the owner.
	live = append(live, s.shadowRecords()...)
	// Open watch sessions survive as their latest snapshot.
	live = append(live, s.watchRecords()...)
	if err := d.j.Compact(live); err != nil {
		d.fail(s.cfg.Log, "journal compact", err)
		return
	}
	d.bytesSinceCompact.Store(0)
}

// decodeStored turns a disk snapshot back into a servable job.
func decodeStored(id string, raw []byte) (*job, bool) {
	var snap storedJob
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, false
	}
	if snap.Status != StatusDone && snap.Status != StatusFailed {
		return nil, false
	}
	j := &job{id: id, status: snap.Status, errMsg: snap.Error, done: make(chan struct{})}
	if len(snap.Result) > 0 {
		var res mc.Result
		if err := json.Unmarshal(snap.Result, &res); err != nil {
			return nil, false
		}
		j.result = &res
	}
	if j.status == StatusDone && j.result == nil {
		return nil, false
	}
	close(j.done) // settled: ?wait=1 must not block
	return j, true
}

// replayJournal is the startup recovery pass: repair the result store
// from settled records, re-enqueue accepted-but-unsettled jobs under
// their original ids, then compact the journal to the survivors.
// Called from New after the worker pool is running, so re-enqueued
// work starts settling immediately.
func (s *Server) replayJournal() {
	d := s.durable
	type entry struct {
		request json.RawMessage
		owner   string
		tenant  string
		settled *storedJob
	}
	order := make([]string, 0, 64)
	jobs := make(map[string]*entry)
	watchSnaps := make(map[string]json.RawMessage)
	stats, err := journal.Replay(d.j.Dir(), func(rec journal.Record) error {
		switch rec.Type {
		case journal.TypeAccepted:
			if _, dup := jobs[rec.ID]; !dup {
				jobs[rec.ID] = &entry{request: rec.Request, owner: rec.Owner, tenant: rec.Tenant}
				order = append(order, rec.ID)
			}
		case journal.TypeWatch:
			// Sessions snapshot their full state on every change: the
			// last record per session wins.
			watchSnaps[rec.ID] = rec.Request
		case journal.TypeSettled:
			e, ok := jobs[rec.ID]
			if !ok {
				// A settlement whose acceptance was compacted away or
				// lost to damage: still worth restoring the result.
				e = &entry{}
				jobs[rec.ID] = e
				order = append(order, rec.ID)
			}
			e.settled = &storedJob{Status: rec.Status, Error: rec.Error, Result: rec.Result}
		}
		return nil
	})
	if err != nil {
		d.fail(s.cfg.Log, "journal replay", err)
		return
	}
	d.corrupt.Store(int64(stats.Corrupt))
	if stats.Corrupt > 0 {
		s.cfg.Log.Printf("durability: journal replay skipped %d damaged record(s) across %d segment(s)", stats.Corrupt, stats.Segments)
	}

	live := make([]journal.Record, 0, len(order))
	for _, id := range order {
		e := jobs[id]
		switch {
		case e.settled != nil:
			// Heal the settled-append → store-write crash window.
			if _, ok, _ := d.store.Get(id); !ok {
				raw, err := json.Marshal(e.settled)
				if err == nil {
					err = d.store.Put(id, raw)
				}
				if err != nil {
					d.fail(s.cfg.Log, "result store repair", err)
					return
				}
				d.restored.Add(1)
			}
		default:
			if _, ok, _ := d.store.Get(id); ok {
				// Settled on disk but the journal lost the settlement
				// (crash between store write and ack, or damage): the
				// store copy is authoritative.
				d.restored.Add(1)
				continue
			}
			if cs := s.cluster; cs != nil && e.owner != "" && !cs.c.IsSelf(e.owner) {
				// A peer's promise journaled here for replication: shadow
				// it — run it only if the owner is declared dead — rather
				// than re-enqueueing a job the owner is probably running.
				s.addShadow(id, shadowJob{Request: e.request, Owner: e.owner, Tenant: e.tenant})
			} else if s.reenqueue(id, e.request, e.owner, e.tenant) {
				d.replayed.Add(1)
			} else {
				continue
			}
			// Record the live entry from the replayed bytes, not the job:
			// a worker may already be settling it (and clearing its
			// request) the moment reenqueue returns.
			live = append(live, journal.Record{Type: journal.TypeAccepted, ID: id, Request: e.request, Owner: e.owner, Tenant: e.tenant})
		}
	}
	// Non-tombstoned watch snapshots stay live across the compaction;
	// their sessions restore after it so fresh appends land in
	// segments the compactor cannot delete.
	openWatch := make(map[string]json.RawMessage, len(watchSnaps))
	for id, raw := range watchSnaps {
		var probe struct {
			Closed bool `json:"closed"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil || probe.Closed {
			continue
		}
		openWatch[id] = raw
		live = append(live, journal.Record{Type: journal.TypeWatch, ID: id, Request: raw})
	}
	if stats.Records > 0 || stats.Corrupt > 0 {
		d.mu.Lock()
		if err := d.j.Compact(live); err != nil {
			d.fail(s.cfg.Log, "journal compact", err)
		}
		d.mu.Unlock()
		s.cfg.Log.Printf("durability: replayed journal: %d record(s), %d job(s) re-enqueued, %d result(s) restored",
			stats.Records, d.replayed.Load(), d.restored.Load())
	}
	s.restoreWatches(openWatch)
}

// reenqueue recompiles a journaled request and accepts it again under
// its original id. A request that no longer compiles (version skew,
// damaged payload) settles as failed so its id still answers. tenant
// places the job back in its fair queue; records written before
// multi-tenancy existed have none and map to the default tenant.
func (s *Server) reenqueue(id string, reqJSON json.RawMessage, owner, tenant string) bool {
	cr, err := s.recompile(reqJSON)
	if err != nil {
		s.cfg.Log.Printf("durability: journaled job %s no longer compiles (%v); settling as failed", id, err)
		snap := storedJob{Status: StatusFailed, Error: fmt.Sprintf("replay: request no longer compiles: %v", err)}
		if perr := s.durable.store.Put(id, mustMarshal(snap)); perr != nil {
			s.durable.fail(s.cfg.Log, "result store write", perr)
		}
		return false
	}
	if cr.id != id {
		// The content address is derived from the request, so this
		// means the addressing scheme changed between versions. Honor
		// the journaled id — it is the one the client holds.
		s.cfg.Log.Printf("durability: journaled job %s recompiles to %s; keeping the journaled id", id, cr.id)
	}
	ten := s.tenants.lookup(tenant)
	_, created, _ := s.accept(cr, admission{from: fromJournal, id: id, req: reqJSON,
		owner: owner, tenant: ten, class: ten.class})
	return created
}

// closeDurable shuts the journal file; called from Server.Close.
func (s *Server) closeDurable() {
	if s.durable != nil {
		s.durable.j.Close()
	}
}
