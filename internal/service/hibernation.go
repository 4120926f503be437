package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// This file is the serving layer of the memory-governance subsystem:
// the resident⇄hibernated state machine around each stream, the lazy
// rehydration path, the read path that serves hibernated streams
// without it, and the background governor that enforces the byte
// budget and idle policy.
//
// The registry maps ids to entries, not streams. An entry is either
// resident (a live *stream: worker goroutine, open WAL, detector in
// memory) or hibernated (a lightweight stub: last-known status, zero
// goroutines, zero open file descriptors — hibernation's final
// snapshot was written and the WAL closed by the worker's own exit
// path, the same one Shutdown and DeleteStream already used). The
// entry mutex guards the swap; Server.mu guards only map membership.
//
// Hibernate: stop intake, drain the worker (its exit writes a fresh
// snapshot and closes the log), write the final report to report.json,
// swap in the stub, forget the ledger entry. Rehydrate: singleflight
// per id — replay the journal, restore the detector bit-exactly
// (core.RestoreOnline), start a new worker. Only pushes rehydrate: a
// report read of a stub is served from its report.json, and falls back
// to a rehydration only when that file could not be written. A push
// that races a hibernation gets errStreamClosed from the old stream and
// retries through acquire, which blocks on the entry until the swap
// completes and then rehydrates.

// errUnknownStream maps to HTTP 404.
var errUnknownStream = errors.New("service: unknown stream")

// entry is one registry slot: exactly one of st (resident) and stub
// (hibernated) is non-nil, guarded by mu. Holding mu across the whole
// hibernate (including the worker drain) is deliberate: concurrent
// acquires for the id park on the mutex and observe a consistent
// state, never a half-swapped one.
type entry struct {
	id   string
	mu   sync.Mutex
	st   *stream
	stub *stubState
}

// stubState is what a hibernated stream keeps in memory: enough for
// /streams, /metrics and the admin endpoint to enumerate it, and the
// defaults-applied config rehydration restarts it with. Its report
// stays on disk, in report.json.
type stubState struct {
	cfg          StreamConfig
	info         StreamInfo // status captured at hibernation (or boot recovery)
	bytes        int64      // last accounted resident size
	lastPush     time.Time  // zero when never pushed
	hibernatedAt time.Time
	// reportSaved is true when report.json holds this stub's report.
	// Writing it can fail; reads of the stub then rehydrate.
	reportSaved bool
}

// resident returns the id's live stream without rehydrating; ok is
// false when the stream is unknown or hibernated.
func (s *Server) resident(id string) (*stream, bool) {
	s.mu.RLock()
	e := s.streams[id]
	s.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	st := e.st
	e.mu.Unlock()
	return st, st != nil
}

// exists reports whether the id is registered, resident or not.
func (s *Server) exists(id string) bool {
	s.mu.RLock()
	_, ok := s.streams[id]
	s.mu.RUnlock()
	return ok
}

// acquire returns the id's live stream, transparently rehydrating a
// hibernated one, and marks it used in the working set. Pushes take
// this path; reads take it only as readReport's fallback. Concurrent
// acquires of the same hibernated stream share a single rehydration
// (singleflight). The loop handles the (rare) race where the governor
// re-hibernates between our rehydrate and our lookup.
func (s *Server) acquire(id string) (*stream, error) {
	for {
		s.mu.RLock()
		e := s.streams[id]
		down := s.shutdown
		s.mu.RUnlock()
		if e == nil {
			return nil, errUnknownStream
		}
		e.mu.Lock()
		if e.st != nil {
			st := e.st
			e.mu.Unlock()
			s.lru.Touch(id, time.Now())
			return st, nil
		}
		e.mu.Unlock()
		if down {
			return nil, errStreamClosed
		}
		if _, err, _ := s.flight.Do(id, func() (any, error) {
			return nil, s.rehydrate(id)
		}); err != nil {
			return nil, err
		}
	}
}

// rehydrate restores one hibernated stream from its journal and starts
// a fresh worker. Callers go through the singleflight in acquire.
func (s *Server) rehydrate(id string) error {
	start := time.Now()
	s.mu.RLock()
	e := s.streams[id]
	down := s.shutdown
	s.mu.RUnlock()
	if e == nil {
		return errUnknownStream
	}
	if down {
		return errStreamClosed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st != nil {
		return nil // lost the race to another rehydration: already resident
	}
	cfg := e.stub.cfg

	// The tracer exists before the work so the rehydrate root span —
	// with its replay and restore children — lands in the stream's own
	// trace ring and is visible at /debug/traces afterwards.
	var tracer *obs.Tracer
	if cfg.TraceBuffer > 0 {
		tracer = obs.NewTracer(cfg.TraceBuffer)
	}
	root := tracer.Start("rehydrate")
	root.SetString("stream", id)

	replay := root.StartChild("replay")
	rs, err := recoverStreamDir(streamDir(s.cfg.DataDir, id), s.cfg.Fsync)
	if err != nil {
		root.End()
		s.metrics.add("cadd_recovery_failures_total", labels("stream", id), 1)
		return fmt.Errorf("service: rehydrating stream %q: %w", id, err)
	}
	replay.SetInt("instances", int64(rs.state.T))
	replay.SetInt("replayed_records", int64(rs.replayed))
	replay.End()

	restore := root.StartChild("restore")
	coreCfg, err := cfg.coreConfig()
	if err == nil {
		var det *core.OnlineDetector
		det, err = core.RestoreOnline(coreCfg, cfg.L, rs.state)
		if err == nil {
			det.SetMaxHistory(cfg.MaxHistory)
			restore.SetString("oracle", det.RestoredOracle())
			restore.End()
			root.End()
			j := s.journalFor(id, rs)
			e.st = startStream(id, cfg, s.metrics, s.cfg.Logger, det, int64(rs.state.T), j, tracer, s.sizedFor(id))
			e.st.setLastPush(e.stub.lastPush)
			e.stub = nil
			s.lru.Touch(id, time.Now())
			if rs.truncated > 0 {
				s.metrics.add("cadd_wal_truncations_total", "", 1)
			}
			s.metrics.add("cadd_rehydrations_total", "", 1)
			s.metrics.observe("cadd_rehydrate_seconds", "", time.Since(start).Seconds())
			s.cfg.Logger.Info("stream rehydrated", "stream", id,
				"instances", rs.state.T, "replayed_records", rs.replayed,
				"seconds", time.Since(start).Seconds())
			return nil
		}
	}
	rs.log.Close()
	root.End()
	s.metrics.add("cadd_recovery_failures_total", labels("stream", id), 1)
	return fmt.Errorf("service: rehydrating stream %q: %w", id, err)
}

// HibernateStream journals a final snapshot of the stream, writes its
// final report to report.json and drops its in-memory state, leaving a
// stub in the registry. Reads are served from that file; the next push
// rehydrates the stream transparently. Hibernating a stream that is
// already hibernated is a no-op; hibernating one without durability
// (no data dir) or with a failed journal is refused, because its state
// could not be brought back.
func (s *Server) HibernateStream(id string) error {
	s.mu.RLock()
	e := s.streams[id]
	down := s.shutdown
	s.mu.RUnlock()
	if e == nil {
		return errUnknownStream
	}
	if down {
		return errStreamClosed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		return nil // double-hibernate: no-op
	}
	st := e.st
	if st.journal == nil {
		return fmt.Errorf("service: stream %q: hibernation requires durability (configure a data dir)", id)
	}
	if st.journal.failed.Load() {
		return fmt.Errorf("service: stream %q: journal failed; refusing to hibernate un-restorable state", id)
	}
	// The worker's exit path writes the final snapshot and closes the
	// WAL — after the drain the stream holds no goroutine and no file
	// descriptor, and its report includes every queued push.
	st.close()
	<-st.drained()
	info := st.info()
	info.State = StreamStateHibernated
	bytes := s.ledger.Bytes(id)
	e.stub = &stubState{
		cfg:          st.cfg,
		info:         info,
		bytes:        bytes,
		lastPush:     st.lastPushTime(),
		hibernatedAt: time.Now(),
		reportSaved:  s.saveReport(id, st.report()),
	}
	e.st = nil
	s.lru.Remove(id)
	s.ledger.Forget(id)
	s.metrics.add("cadd_hibernations_total", "", 1)
	s.cfg.Logger.Info("stream hibernated", "stream", id,
		"instances", info.Ingested, "resident_bytes", bytes)
	return nil
}

// journalFor rebuilds a stream's journal sidecar around a recovered
// (open, append-positioned) log.
func (s *Server) journalFor(id string, rs *recoveredStream) *journal {
	return &journal{
		log:           rs.log,
		snapPath:      snapshotPath(s.cfg.DataDir, id),
		cfgJSON:       rs.cfgJSON,
		snapshotEvery: s.cfg.SnapshotEvery,
		sinceSnapshot: rs.replayed,
		chain:         rs.chain,
		streamID:      id,
		logger:        s.cfg.Logger,
		metrics:       s.metrics,
		sink:          s.cfg.Replication,
	}
}

// sizedFor is the footprint publisher handed to a stream's worker: it
// records the detector's estimated resident bytes after every push and
// kicks the governor as soon as the ledger crosses the high watermark,
// so reclaim starts at the allocation that crossed the line, not at
// the next timer tick.
func (s *Server) sizedFor(id string) func(int64) {
	return func(bytes int64) {
		s.ledger.Set(id, bytes)
		if s.ledger.OverHigh() {
			s.kickGovernor()
		}
	}
}

// Push ingests one snapshot into a stream, rehydrating it first when
// hibernated. The programmatic twin of POST /v1/streams/{id}/snapshots.
func (s *Server) Push(id string, g *graph.Graph, sync bool) (PushResult, error) {
	return s.push(id, g, nil, sync, pushContext{}, -1)
}

// push is the shared ingest path: acquire (rehydrating if needed),
// enqueue, and retry the acquire when the enqueue lost a race against
// a concurrent hibernation — the retried acquire parks on the entry
// mutex until the swap completes, so the retry either reaches the
// rehydrated stream or surfaces a real closure (delete, shutdown).
func (s *Server) push(id string, g *graph.Graph, snap *Snapshot, sync bool, pc pushContext, expected int64) (PushResult, error) {
	for attempt := 0; ; attempt++ {
		st, err := s.acquire(id)
		if err != nil {
			return PushResult{}, err
		}
		res, err := st.enqueue(g, snap, sync, pc, expected)
		if errors.Is(err, errStreamClosed) && attempt < 3 {
			continue
		}
		return res, err
	}
}

// storedReport is one stream's report as a read finds it: a resident
// stream, thresholded under its detector lock, or the canonical bytes
// of a hibernated stream's report.json.
type storedReport struct {
	st   *stream
	file []byte
}

// readReport resolves id for a report read. It neither rehydrates a
// hibernated stream nor marks a resident one used, so only pushes
// decide which streams stay resident. A stub whose report.json could
// not be written or read falls back to acquire's rehydration. Each
// resolved read counts once in cadd_report_reads_total, by where it
// was served; a fallback counts as resident.
func (s *Server) readReport(id string) (storedReport, error) {
	s.mu.RLock()
	e := s.streams[id]
	s.mu.RUnlock()
	if e == nil {
		return storedReport{}, errUnknownStream
	}
	// The file is read under the entry lock, which every write of it
	// and every stub swap also holds, so the bytes are this stub's.
	var rep storedReport
	e.mu.Lock()
	rep.st = e.st
	if e.stub != nil && e.stub.reportSaved {
		b, err := os.ReadFile(reportPath(s.cfg.DataDir, id))
		if err == nil {
			rep.file = b
		} else {
			s.cfg.Logger.Warn("report file unreadable; rehydrating", "stream", id, "err", err)
		}
	}
	e.mu.Unlock()
	if rep.file != nil {
		s.metrics.add("cadd_report_reads_total", labels("state", StreamStateHibernated), 1)
		return rep, nil
	}
	if rep.st == nil {
		st, err := s.acquire(id)
		if err != nil {
			return storedReport{}, err
		}
		rep.st = st
	}
	s.metrics.add("cadd_report_reads_total", labels("state", StreamStateResident), 1)
	return rep, nil
}

// writeTo writes the report's canonical encoding: core.WriteReportJSON's
// bytes, stored or freshly encoded.
func (r storedReport) writeTo(w io.Writer) error {
	if r.st == nil {
		_, err := w.Write(r.file)
		return err
	}
	return core.WriteReportJSON(w, r.st.report())
}

// transition returns transition t's entry at the report's δ; false
// when t is not in the retained window. A stored entry re-encodes to
// the bytes the resident stream's entry would.
func (r storedReport) transition(t int) (core.TransitionJSON, bool, error) {
	if r.st != nil {
		tr, ok := r.st.transition(t)
		return tr.JSON(), ok, nil
	}
	var rep core.ReportJSON
	if err := json.Unmarshal(r.file, &rep); err != nil {
		return core.TransitionJSON{}, false, err
	}
	for _, tr := range rep.Transitions {
		if tr.Transition == t {
			return tr, true, nil
		}
	}
	return core.TransitionJSON{}, false, nil
}

// --- governor --------------------------------------------------------

// governed reports whether the background governor should run: memory
// governance needs durability (the journal is hibernation's backing
// store) and at least one policy knob set.
func (c Config) governed() bool {
	return c.DataDir != "" && (c.MemBudgetBytes > 0 || c.HibernateAfter > 0)
}

// startGovernor launches the governance goroutine. It wakes on the
// configured interval and on kicks from the footprint publisher.
func (s *Server) startGovernor() {
	s.govStop = make(chan struct{})
	s.govKick = make(chan struct{}, 1)
	s.govWG.Add(1)
	go func() {
		defer s.govWG.Done()
		tick := time.NewTicker(s.cfg.GovernorInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.govStop:
				return
			case <-tick.C:
			case <-s.govKick:
			}
			s.governOnce(time.Now())
		}
	}()
}

// kickGovernor requests an immediate governance pass (coalesced).
func (s *Server) kickGovernor() {
	if s.govKick == nil {
		return
	}
	select {
	case s.govKick <- struct{}{}:
	default:
	}
}

// stopGovernor stops the goroutine and waits for an in-flight pass, so
// a hibernation the governor started always finishes its snapshot and
// WAL close before Shutdown proceeds.
func (s *Server) stopGovernor() {
	if s.govStop == nil {
		return
	}
	close(s.govStop)
	s.govWG.Wait()
}

// governOnce runs one governance pass and returns the number of
// streams hibernated. Two sub-passes:
//
//  1. Idle: streams untouched for HibernateAfter are hibernated
//     regardless of budget pressure.
//  2. Watermark: while the ledger is over its reclaim target, the
//     working set's coldest streams are hibernated until the total is
//     back under the low watermark.
//
// Both respect the MinResident floor. A stream that refuses to
// hibernate (failed journal) is dropped from the victim tracker so the
// pass cannot spin on it; its next push re-registers it.
func (s *Server) governOnce(now time.Time) int {
	hibernated := 0
	if s.cfg.HibernateAfter > 0 {
		for _, id := range s.lru.IdleBefore(now.Add(-s.cfg.HibernateAfter), 0) {
			if s.ResidentCount() <= s.cfg.MinResident {
				break
			}
			if err := s.HibernateStream(id); err != nil {
				s.lru.Remove(id)
				continue
			}
			hibernated++
		}
	}
	// Capture the target once: ReclaimTarget goes back to zero as soon
	// as the total dips under the high watermark, but a pass that
	// triggered must keep reclaiming all the way down to the low one.
	if target := s.ledger.ReclaimTarget(); target > 0 {
		floor := s.ledger.Total() - target // the low watermark
		for s.ledger.Total() > floor && s.ResidentCount() > s.cfg.MinResident {
			id, ok := s.lru.Coldest()
			if !ok {
				break
			}
			if err := s.HibernateStream(id); err != nil {
				s.lru.Remove(id)
				continue
			}
			hibernated++
		}
	}
	return hibernated
}

// EnforceBudget synchronously runs one governance pass (idle policy
// plus watermark reclaim) and returns the number of streams it
// hibernated. The background governor does this on its own; the
// explicit form exists for tests, benchmarks and operational tooling.
func (s *Server) EnforceBudget() int {
	return s.governOnce(time.Now())
}

// --- status ----------------------------------------------------------

// ResidentCount returns the number of streams currently resident.
func (s *Server) ResidentCount() int {
	resident, _ := s.stateCounts()
	return resident
}

func (s *Server) stateCounts() (resident, hibernated int) {
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.streams))
	for _, e := range s.streams {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.st != nil {
			resident++
		} else {
			hibernated++
		}
		e.mu.Unlock()
	}
	return resident, hibernated
}

// AccountedBytes returns the ledger's current resident total.
func (s *Server) AccountedBytes() int64 { return s.ledger.Total() }

// PeakAccountedBytes returns the highest resident total ever recorded
// — what a bounded-memory test asserts stayed under the budget.
func (s *Server) PeakAccountedBytes() int64 { return s.ledger.Peak() }

// AdminStreams returns every registered stream's governance view —
// resident or hibernated — ordered by id. The HTTP form is
// GET /streams.
func (s *Server) AdminStreams() []AdminStreamInfo {
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.streams))
	for _, e := range s.streams {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })

	out := make([]AdminStreamInfo, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		st, stub := e.st, e.stub
		e.mu.Unlock()
		ai := AdminStreamInfo{ID: e.id}
		switch {
		case st != nil:
			ai.State = StreamStateResident
			ai.ResidentBytes = s.ledger.Bytes(e.id)
			ai.Ingested = st.ingestedCount()
			if t := st.lastPushTime(); !t.IsZero() {
				ai.LastPush = t.UTC().Format(time.RFC3339Nano)
			}
		case stub != nil:
			ai.State = StreamStateHibernated
			ai.ResidentBytes = stub.bytes
			ai.Ingested = stub.info.Ingested
			if !stub.lastPush.IsZero() {
				ai.LastPush = stub.lastPush.UTC().Format(time.RFC3339Nano)
			}
		default:
			continue // entry being deleted
		}
		out = append(out, ai)
	}
	return out
}
