package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/solver"
	"dyngraph/internal/wal"
)

// This file wires the wal package into the stream lifecycle. Each
// stream with durability enabled owns a directory
//
//	<DataDir>/streams/<id>/
//	    config.json   the StreamConfig, written once at creation
//	    wal.log       one framed PushRecord per scored push
//	    snapshot.bin  the latest compact StreamSnapshot
//	    report.json   the canonical report at hibernation (derived data:
//	                  a governed boot rewrites it, replication never
//	                  ships it)
//
// The journal is confined to the stream's worker goroutine (like the
// detector itself), so it needs no locking. Recovery happens before
// the server starts listening: Server.Recover scans the directory,
// replays snapshot + log into a core.OnlineState and restores the
// detector without re-running any oracle builds — scores were
// journaled verbatim precisely so recovery is cheap and byte-exact.

const (
	streamConfigFile   = "config.json"
	streamWALFile      = "wal.log"
	streamSnapshotFile = "snapshot.bin"
	streamReportFile   = "report.json"
)

// streamDir is the on-disk home of one stream's journal.
func streamDir(dataDir, id string) string {
	return filepath.Join(dataDir, "streams", id)
}

// snapshotPath is the stream's compact-snapshot file.
func snapshotPath(dataDir, id string) string {
	return filepath.Join(streamDir(dataDir, id), streamSnapshotFile)
}

// reportPath is the stream's derived report file (see saveReport).
func reportPath(dataDir, id string) string {
	return filepath.Join(streamDir(dataDir, id), streamReportFile)
}

// saveReport writes rep's canonical encoding to the stream's
// report.json, from which reads of the hibernated stream are served.
// The file is derived data — a governed boot rewrites it and only a
// stub reads it — so it is renamed into place without an fsync. It
// reports whether the write succeeded; on failure the stub's reads
// rehydrate instead.
func (s *Server) saveReport(id string, rep core.Report) bool {
	var buf bytes.Buffer
	err := core.WriteReportJSON(&buf, rep)
	if err == nil {
		err = writeFileAtomic(reportPath(s.cfg.DataDir, id), buf.Bytes(), false)
	}
	if err != nil {
		s.cfg.Logger.Error("writing report file failed; reads will rehydrate the stream", "stream", id, "err", err)
		return false
	}
	return true
}

// journal is a stream's durability sidecar. All fields after
// construction are owned by the worker goroutine; a journaling failure
// flips failed and the stream keeps serving without durability (the
// error is logged and counted — losing the journal must not take down
// scoring).
type journal struct {
	log           *wal.Log
	snapPath      string
	cfgJSON       []byte
	snapshotEvery int
	sinceSnapshot int
	chain         uint64 // digest-chain value after the newest record
	streamID      string
	logger        *slog.Logger
	metrics       *metrics
	// sink, when set, receives every frame and snapshot this journal
	// writes, byte-for-byte — the WAL-shipping tap behind warm failover.
	sink ReplicationSink
	// failed is atomic because the governor reads it from outside the
	// worker goroutine when deciding whether a stream can hibernate
	// (a failed journal cannot produce the snapshot hibernation needs).
	failed atomic.Bool
}

// pushJournalData is what the worker captures under detMu after a
// successful push, for the journal to persist outside the lock.
type pushJournalData struct {
	g        *graph.Graph
	instance int64
	scores   []core.EdgeScore // newest transition's scores; nil at instance 0
	total    float64
	delta    float64
	evicted  int64
	newIDs   []string          // external IDs this push interned; nil for raw streams
	snap     *core.OnlineState // non-nil when a compaction is due
}

// snapshotDue reports whether the next recorded push should compact.
func (j *journal) snapshotDue() bool {
	return !j.failed.Load() && j.sinceSnapshot+1 >= j.snapshotEvery
}

// recordPush appends one push record, then compacts when d.snap is
// set. Called by the worker after every successful push, before a
// synchronous pusher is acked — an acked push is always journaled.
// parent (nil-safe) receives child spans for the WAL append, the
// replication ship and any compaction, so journal latency is
// attributable per phase in the push trace.
func (j *journal) recordPush(d *pushJournalData, parent *obs.Span) {
	if j.failed.Load() {
		return
	}
	rec := &wal.PushRecord{
		Instance:     d.instance,
		Graph:        graphToWAL(d.g),
		Scores:       scoresToWAL(d.scores),
		Total:        d.total,
		Delta:        d.delta,
		Evicted:      d.evicted,
		NewVertexIDs: d.newIDs,
	}
	rec.Digest = wal.StateDigest(j.chain, d.instance, d.delta, d.evicted, d.total)
	payload, err := wal.EncodeRecord(rec)
	var frame []byte
	if err == nil {
		frame, err = wal.EncodeFrame(payload)
	}
	if err == nil {
		// The frame is encoded once and both appended locally and
		// shipped, so the follower's log stays byte-identical to ours.
		asp := parent.StartChild("wal_append")
		asp.SetInt("bytes", int64(len(frame)))
		err = j.log.AppendFrame(frame)
		asp.End()
	}
	if err != nil {
		j.fail("append", err)
		return
	}
	if j.sink != nil {
		// ShipFrame only enqueues on the replicator's bounded channel,
		// but the span keeps the hop visible in the stitched cross-node
		// trace: a slow or full sink shows up here.
		ssp := parent.StartChild("replicate_ship")
		ssp.SetInt("bytes", int64(len(frame)))
		j.sink.ShipFrame(j.streamID, frame)
		ssp.End()
	}
	j.chain = rec.Digest
	j.sinceSnapshot++
	if d.snap != nil {
		csp := parent.StartChild("snapshot_compact")
		j.compact(d.snap)
		csp.End()
	}
}

// compact rotates a snapshot of st in and resets the log. The order is
// the crash-safe one: the snapshot rename lands before the reset, so a
// crash in between leaves records the snapshot already covers (replay
// skips them by instance index).
func (j *journal) compact(st *core.OnlineState) {
	if j.failed.Load() {
		return
	}
	snap := snapshotFromState(j.cfgJSON, st, j.chain)
	payload, err := wal.EncodeSnapshot(snap)
	if err == nil {
		err = wal.WriteSnapshotFile(j.snapPath, payload)
	}
	if err == nil {
		err = j.log.Reset()
	}
	if err != nil {
		j.fail("snapshot", err)
		return
	}
	if j.sink != nil {
		// A snapshot op rewrites the follower's full stream state
		// (snapshot file + log truncate), mirroring the reset above.
		j.sink.ShipSnapshot(j.streamID, payload)
	}
	j.sinceSnapshot = 0
}

// closeWith writes a final snapshot when records accumulated since the
// last one, then closes the log. Worker-exit path (drain or delete).
func (j *journal) closeWith(st *core.OnlineState) {
	if !j.failed.Load() && j.sinceSnapshot > 0 {
		j.compact(st)
	}
	if err := j.log.Close(); err != nil && !j.failed.Load() {
		j.logger.Error("journal close failed", "stream", j.streamID, "err", err)
	}
}

// fail disables the journal after a write error. Scoring continues;
// durability for this stream ends at the last good record.
func (j *journal) fail(op string, err error) {
	j.failed.Store(true)
	j.metrics.add("cadd_wal_errors_total", labels("stream", j.streamID), 1)
	j.logger.Error("journal write failed; durability disabled for this stream",
		"stream", j.streamID, "op", op, "err", err)
}

// --- wire ↔ wal conversions -----------------------------------------

func graphToWAL(g *graph.Graph) wal.GraphData {
	ge := g.Edges()
	d := wal.GraphData{N: int32(g.N()), Edges: make([]wal.Edge, len(ge))}
	for i, e := range ge {
		d.Edges[i] = wal.Edge{I: int32(e.I), J: int32(e.J), W: e.W}
	}
	if labels := g.Labels(); labels != nil {
		d.Labels = append([]string(nil), labels...)
	}
	return d
}

// checkStoredVertices refuses a vertex count read from disk (or from a
// replica) that no push could have produced: negative, or above the
// maxSnapshotVertices cap that every push obeys. The count sizes the
// graph's row index even without edges, so an unchecked one is an
// allocation of up to 16 GiB.
func checkStoredVertices(n int32) error {
	if n < 0 || n > maxSnapshotVertices {
		return fmt.Errorf("%d vertices, outside 0..%d", n, maxSnapshotVertices)
	}
	return nil
}

func graphFromWAL(d *wal.GraphData) (*graph.Graph, error) {
	if err := checkStoredVertices(d.N); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, len(d.Edges))
	for i, e := range d.Edges {
		edges[i] = graph.Edge{I: int(e.I), J: int(e.J), W: e.W}
	}
	return graph.FromEdges(int(d.N), edges, d.Labels)
}

func scoresToWAL(scores []core.EdgeScore) []wal.Score {
	if scores == nil {
		return nil
	}
	out := make([]wal.Score, len(scores))
	for i, sc := range scores {
		out[i] = wal.Score{I: int32(sc.I), J: int32(sc.J), S: sc.Score}
	}
	return out
}

func scoresFromWAL(scores []wal.Score) []core.EdgeScore {
	out := make([]core.EdgeScore, len(scores))
	for i, sc := range scores {
		out[i] = core.EdgeScore{I: int(sc.I), J: int(sc.J), Score: sc.S}
	}
	return out
}

func snapshotFromState(cfgJSON []byte, st *core.OnlineState, chain uint64) *wal.StreamSnapshot {
	snap := &wal.StreamSnapshot{
		Config:    cfgJSON,
		N:         int32(st.N),
		Instances: int64(st.T),
		Evicted:   int64(st.Evicted),
		Delta:     st.Delta,
		History:   make([]wal.TransitionData, len(st.History)),
		Digest:    chain,
	}
	for i, tr := range st.History {
		snap.History[i] = wal.TransitionData{T: int64(tr.T), Scores: scoresToWAL(tr.Scores), Total: tr.Total}
	}
	if st.Prev != nil {
		g := graphToWAL(st.Prev)
		snap.Prev = &g
	}
	if st.VertexIDs != nil {
		snap.VertexIDs = append([]string(nil), st.VertexIDs...)
	}
	if o := st.Oracle; o != nil {
		snap.Oracle = &wal.OracleData{
			Z:        wal.Pack(o.Z),
			Y:        wal.Pack(o.Y),
			ResBound: wal.Pack(o.ResBound),
			NormB:    wal.Pack(o.NormB),
		}
		if f := o.Forest; f != nil {
			snap.Oracle.Parent = wal.Pack(f.Parent)
			snap.Oracle.Order = wal.Pack(f.Order)
		}
	}
	return snap
}

func stateFromSnapshot(snap *wal.StreamSnapshot) (core.OnlineState, error) {
	if err := checkStoredVertices(snap.N); err != nil {
		return core.OnlineState{}, fmt.Errorf("snapshot: %w", err)
	}
	st := core.OnlineState{
		N:       int(snap.N),
		T:       int(snap.Instances),
		Evicted: int(snap.Evicted),
		Delta:   snap.Delta,
		History: make([]core.Transition, len(snap.History)),
	}
	for i, td := range snap.History {
		st.History[i] = core.Transition{T: int(td.T), Scores: scoresFromWAL(td.Scores), Total: td.Total}
	}
	if snap.Prev != nil {
		g, err := graphFromWAL(snap.Prev)
		if err != nil {
			return st, fmt.Errorf("snapshot graph: %w", err)
		}
		st.Prev = g
	}
	if snap.VertexIDs != nil {
		if len(snap.VertexIDs) != st.N {
			return st, fmt.Errorf("snapshot has %d vertex ids for %d vertices", len(snap.VertexIDs), st.N)
		}
		st.VertexIDs = append([]string(nil), snap.VertexIDs...)
	}
	if snap.Oracle != nil {
		o, err := oracleFromWAL(snap.Oracle)
		if err != nil {
			return st, fmt.Errorf("snapshot oracle: %w", err)
		}
		st.Oracle = o
	}
	return st, nil
}

// oracleFromWAL unpacks a snapshot's oracle block. Only the packing is
// checked here; core.RestoreOnline checks the blocks against the graph
// and the stream's configuration.
func oracleFromWAL(d *wal.OracleData) (*commute.State, error) {
	var o commute.State
	var parent, order []int32
	var errs [6]error
	o.Z, errs[0] = wal.Unpack[float64](d.Z)
	o.Y, errs[1] = wal.Unpack[float64](d.Y)
	o.ResBound, errs[2] = wal.Unpack[float64](d.ResBound)
	o.NormB, errs[3] = wal.Unpack[float64](d.NormB)
	parent, errs[4] = wal.Unpack[int32](d.Parent)
	order, errs[5] = wal.Unpack[int32](d.Order)
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	if parent != nil || order != nil {
		o.Forest = &solver.Forest{Parent: parent, Order: order}
	}
	return &o, nil
}

// --- recovery --------------------------------------------------------

// recoveredStream is the outcome of replaying one stream directory.
type recoveredStream struct {
	cfg       StreamConfig
	cfgJSON   []byte
	state     core.OnlineState
	chain     uint64
	replayed  int   // WAL records applied on top of the snapshot
	truncated int64 // torn-tail bytes the WAL layer cut off
	log       *wal.Log
}

// recoverStreamDir rebuilds one stream's state from its directory:
// config.json (required), the snapshot if present, and every WAL
// record past the snapshot. Record application verifies the digest
// chain and instance contiguity, so a journal that lies about itself
// is refused rather than restored, and so is a config.json naming a
// field StreamConfig lacks, as a create body naming one is. The
// returned log is open and positioned for appends; on error it is
// closed.
func recoverStreamDir(dir string, fsync bool) (*recoveredStream, error) {
	cfgJSON, err := os.ReadFile(filepath.Join(dir, streamConfigFile))
	if err != nil {
		return nil, fmt.Errorf("stream config: %w", err)
	}
	var cfg StreamConfig
	dec := json.NewDecoder(bytes.NewReader(cfgJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("stream config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("stream config: data after the config object")
	}

	rs := &recoveredStream{cfg: cfg, cfgJSON: cfgJSON}
	snapPayload, err := wal.ReadSnapshotFile(filepath.Join(dir, streamSnapshotFile))
	switch {
	case err == nil:
		snap, err := wal.DecodeSnapshot(snapPayload)
		if err != nil {
			return nil, err
		}
		rs.state, err = stateFromSnapshot(snap)
		if err != nil {
			return nil, err
		}
		rs.chain = snap.Digest
	case errors.Is(err, wal.ErrNoSnapshot):
		// Fresh or snapshot-less stream: replay from the log alone.
	default:
		return nil, err
	}

	st := &rs.state
	log, rec, err := wal.Open(filepath.Join(dir, streamWALFile), wal.Options{Fsync: fsync}, func(payload []byte) error {
		r, err := wal.DecodeRecord(payload)
		if err != nil {
			return err
		}
		switch {
		case r.Instance < int64(st.T):
			// Covered by the snapshot: a crash landed between the
			// snapshot rename and the log reset.
			return nil
		case r.Instance > int64(st.T):
			return fmt.Errorf("record for instance %d, expected %d (journal gap)", r.Instance, st.T)
		}
		if want := wal.StateDigest(rs.chain, r.Instance, r.Delta, r.Evicted, r.Total); r.Digest != want {
			return fmt.Errorf("digest chain mismatch at instance %d", r.Instance)
		}
		g, err := graphFromWAL(&r.Graph)
		if err != nil {
			return fmt.Errorf("instance %d graph: %w", r.Instance, err)
		}
		if st.T == 0 {
			st.N = g.N()
		} else if g.N() < st.N {
			return fmt.Errorf("instance %d has %d vertices, stream has %d (vertices may be added but not removed)", r.Instance, g.N(), st.N)
		} else {
			st.N = g.N()
		}
		if len(r.NewVertexIDs) > 0 {
			st.VertexIDs = append(st.VertexIDs, r.NewVertexIDs...)
		}
		if st.VertexIDs != nil && len(st.VertexIDs) != st.N {
			return fmt.Errorf("instance %d leaves %d vertex ids for %d vertices", r.Instance, len(st.VertexIDs), st.N)
		}
		if r.Instance > 0 {
			st.History = append(st.History, core.Transition{
				T: int(r.Instance) - 1, Scores: scoresFromWAL(r.Scores), Total: r.Total,
			})
		}
		// The snapshot's oracle belongs to the instance this record
		// supersedes; the restored detector rebuilds the new one.
		st.Prev, st.Oracle = g, nil
		st.Delta = r.Delta
		st.Evicted = int(r.Evicted)
		st.T++
		// Apply the journaled eviction: the record carries the post-push
		// eviction count, which fixes how much window front is gone.
		if keep := st.T - 1 - st.Evicted; keep >= 0 && len(st.History) > keep {
			st.History = append([]core.Transition(nil), st.History[len(st.History)-keep:]...)
		}
		rs.chain = r.Digest
		rs.replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs.log = log
	rs.truncated = rec.TruncatedBytes
	return rs, nil
}

// Recover replays every stream directory under DataDir and registers
// the recovered streams. Call it after New and before serving traffic.
// A stream whose journal cannot be restored is logged, counted in
// cadd_recovery_failures_total and skipped — its directory is left
// intact for inspection, and CreateStream refuses its id until the
// directory is removed. With no DataDir configured this is a no-op.
func (s *Server) Recover() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	root := filepath.Join(s.cfg.DataDir, "streams")
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: recover: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		dir := filepath.Join(root, id)
		if err := s.recoverOne(id, dir); err != nil {
			s.metrics.add("cadd_recovery_failures_total", labels("stream", id), 1)
			s.cfg.Logger.Error("stream recovery failed; directory left for inspection",
				"stream", id, "dir", dir, "err", err)
			continue
		}
		// A follower attached at boot starts from nothing: ship the
		// whole on-disk baseline so subsequent frames land on a stream
		// the replica actually has.
		s.shipBaseline(id)
	}
	return nil
}

// recoverOne restores and registers a single stream.
//
// Under memory governance the stream is registered as a hibernated
// stub rather than a resident worker: the journal is fully decoded and
// the detector restored once — validating the directory, measuring the
// footprint and rewriting report.json — then dropped and the log
// closed, so booting a registry of 100k streams keeps RSS bounded by
// one stream's state at a time. Reads are served from report.json; the
// first push rehydrates lazily.
func (s *Server) recoverOne(id, dir string) error {
	if err := validateStreamID(id); err != nil {
		return err
	}
	rs, err := recoverStreamDir(dir, s.cfg.Fsync)
	if err != nil {
		return err
	}
	cfg := rs.cfg.withDefaults(s.cfg.DefaultQueueSize, s.cfg.DefaultTraceBuffer)
	if cfg.SLOPushSeconds == 0 {
		// Journals written before the SLO existed (or with the default
		// left in place) adopt the server's current objective.
		cfg.SLOPushSeconds = s.cfg.SLOPushP99
	}
	coreCfg, err := cfg.coreConfig()
	if err != nil {
		rs.log.Close()
		return err
	}
	det, err := core.RestoreOnline(coreCfg, cfg.L, rs.state)
	if err != nil {
		rs.log.Close()
		return err
	}
	det.SetMaxHistory(cfg.MaxHistory)

	governed := s.cfg.governed()
	var e *entry
	if governed {
		stub := &stubState{
			cfg:          cfg,
			bytes:        det.SizeBytes(),
			hibernatedAt: time.Now(),
			reportSaved:  s.saveReport(id, det.Report()),
			info: StreamInfo{
				ID:          id,
				Config:      cfg,
				Ingested:    int64(rs.state.T),
				Processed:   int64(rs.state.T),
				Transitions: len(rs.state.History),
				Evicted:     rs.state.Evicted,
				Delta:       rs.state.Delta,
				State:       StreamStateHibernated,
			},
		}
		if err := rs.log.Close(); err != nil {
			return err
		}
		e = &entry{id: id, stub: stub}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		rs.log.Close()
		return fmt.Errorf("service: server is shutting down")
	}
	if _, ok := s.streams[id]; ok {
		rs.log.Close()
		return fmt.Errorf("service: stream %q already exists", id)
	}
	if !governed {
		st := startStream(id, cfg, s.metrics, s.cfg.Logger, det, int64(rs.state.T), s.journalFor(id, rs), nil, s.sizedFor(id))
		e = &entry{id: id, st: st}
		s.lru.Touch(id, time.Now())
	}
	s.streams[id] = e
	s.metrics.add("cadd_recovered_streams_total", "", 1)
	if rs.truncated > 0 {
		s.metrics.add("cadd_wal_truncations_total", "", 1)
	}
	s.cfg.Logger.Info("stream recovered",
		"stream", id, "instances", rs.state.T, "transitions", len(rs.state.History),
		"replayed_records", rs.replayed, "truncated_bytes", rs.truncated,
		"hibernated", governed, "oracle", det.RestoredOracle())
	return nil
}

// newJournal creates the on-disk home of a fresh stream: directory,
// config.json (written atomically so recovery never sees a torn one)
// and an empty log. Caller (CreateStream) has already refused ids with
// leftover unrecovered data.
func newJournal(dataDir, id string, cfg StreamConfig, snapshotEvery int, fsync bool, logger *slog.Logger, m *metrics, sink ReplicationSink) (*journal, error) {
	dir := streamDir(dataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: stream %q: %w", id, err)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("service: stream %q config: %w", id, err)
	}
	cfgLine := append(append([]byte(nil), cfgJSON...), '\n')
	if err := writeFileAtomic(filepath.Join(dir, streamConfigFile), cfgLine, true); err != nil {
		return nil, fmt.Errorf("service: stream %q: %w", id, err)
	}
	log, _, err := wal.Open(filepath.Join(dir, streamWALFile), wal.Options{Fsync: fsync}, func([]byte) error {
		return errors.New("fresh stream has a non-empty journal")
	})
	if err != nil {
		return nil, fmt.Errorf("service: stream %q: %w", id, err)
	}
	if sink != nil {
		// Ship the exact bytes written to config.json, newline included,
		// so the follower's copy is byte-identical.
		sink.ShipConfig(id, cfgLine)
	}
	return &journal{
		log:           log,
		snapPath:      filepath.Join(dir, streamSnapshotFile),
		cfgJSON:       cfgJSON,
		snapshotEvery: snapshotEvery,
		streamID:      id,
		logger:        logger,
		metrics:       m,
		sink:          sink,
	}, nil
}

// writeFileAtomic writes data via a same-directory temp file + rename,
// syncing the temp file first when sync is set.
func writeFileAtomic(path string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(name)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
