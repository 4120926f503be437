package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"dyngraph/internal/buildinfo"
	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
)

// maxSnapshotBytes bounds a snapshot POST body (64 MiB ≈ 2M edges) so
// a single request cannot exhaust memory before the queue bound even
// applies.
const maxSnapshotBytes = 64 << 20

// maxSnapshotVertices bounds a snapshot's declared vertex count n. An
// external-ID body spends at least four bytes per vertex (`"x",`), so
// no body within maxSnapshotBytes names more; raw index mode gets the
// same ceiling, since its n is a bare integer that sizes the graph.
const maxSnapshotVertices = maxSnapshotBytes / 4

// NodeHeader names the cluster node that actually served a response.
// The router and the node-side forwarding middleware leave it intact,
// so a client (or test) can always see where a request landed.
const NodeHeader = "X-Cadd-Node"

// Handler builds the server's HTTP API. Routes use the Go 1.22 method
// + wildcard mux patterns. Every request gets an id (the caller's
// X-Request-ID, or a generated one) that is echoed in the response,
// propagated into push-trace span attributes, and attached to logs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /streams", s.handleAdminStreams)
	mux.HandleFunc("GET /v1/streams", s.handleListStreams)
	mux.HandleFunc("GET /v1/reports", s.handleReports)
	mux.HandleFunc("PUT /v1/streams/{id}", s.handleCreateStream)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamInfo)
	mux.HandleFunc("DELETE /v1/streams/{id}", s.handleDeleteStream)
	mux.HandleFunc("POST /v1/streams/{id}/snapshots", s.handlePostSnapshot)
	mux.HandleFunc("GET /v1/streams/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/streams/{id}/transitions/{t}", s.handleTransition)
	return s.withRequestID(mux)
}

// requestIDKey carries the request id through the handler context.
type requestIDKey struct{}

// withRequestID assigns every request its id: the caller's X-Request-ID
// (truncated to 64 characters) or a random one. The id is echoed in the
// response header so clients can correlate retries, traces and logs;
// obs.EnsureRequestID also writes the id back into the request headers,
// so a node that proxies a misrouted request forwards the same id and
// both nodes' logs join on it. When the server has a cluster node id,
// the response also names which node actually served the request.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.EnsureRequestID(r.Header)
		w.Header().Set(obs.RequestIDHeader, id)
		if s.cfg.NodeID != "" {
			w.Header().Set(NodeHeader, s.cfg.NodeID)
		}
		s.cfg.Logger.Debug("http request", "method", r.Method, "path", r.URL.Path, "request_id", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// requestID extracts the middleware-assigned id ("" outside Handler).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeAcquireError maps an acquire failure: unknown id → 404, closed
// (shutdown) → 409, a failed rehydration → 500.
func writeAcquireError(w http.ResponseWriter, id string, err error) {
	switch {
	case errors.Is(err, errUnknownStream):
		writeError(w, http.StatusNotFound, "unknown stream %q", id)
	case errors.Is(err, errStreamClosed):
		writeError(w, http.StatusConflict, "stream %q is closed", id)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// ?verbose=1 upgrades the liveness probe to the full /statusz
	// document, so one well-known endpoint serves both.
	if r.URL.Query().Get("verbose") == "1" {
		s.handleStatusz(w, r)
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Streams: s.NumStreams(), Node: s.cfg.NodeID})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w)
	// Build identity as the conventional value-1 info gauge.
	fmt.Fprintf(w, "# HELP cadd_build_info Build metadata; the value is always 1.\n# TYPE cadd_build_info gauge\n")
	writeGauge(w, "cadd_build_info", labels("version", buildinfo.Version, "go_version", buildinfo.GoVersion()), 1)

	// Live gauges, computed at scrape time from the registry itself.
	infos := s.ListStreams()
	fmt.Fprintf(w, "# HELP cadd_streams Live detection streams.\n# TYPE cadd_streams gauge\n")
	writeGauge(w, "cadd_streams", "", float64(len(infos)))
	if len(infos) > 0 {
		s.writeStreamMetrics(w, infos)
	}
	// Cluster components (membership, forward proxy, replicator)
	// publish their series through the node's own scrape endpoint —
	// even with zero streams, so an idle node or standby still reports
	// peer liveness and replication progress.
	for _, extra := range s.cfg.ExtraMetrics {
		extra(w)
	}
}

// writeStreamMetrics emits the per-stream scrape-time gauges; split
// out so an empty registry can skip it without skipping the rest of
// the exposition.
func (s *Server) writeStreamMetrics(w io.Writer, infos []StreamInfo) {
	fmt.Fprintf(w, "# HELP cadd_queue_depth Snapshots waiting in a stream's bounded queue.\n# TYPE cadd_queue_depth gauge\n")
	for _, info := range infos {
		writeGauge(w, "cadd_queue_depth", labels("stream", info.ID), float64(info.QueueDepth))
	}
	fmt.Fprintf(w, "# HELP cadd_stream_delta Current global anomaly threshold per stream.\n# TYPE cadd_stream_delta gauge\n")
	for _, info := range infos {
		writeGauge(w, "cadd_stream_delta", labels("stream", info.ID), info.Delta)
	}
	// Trace-ring evictions, read at scrape time from each stream's
	// tracer (a monotonic per-tracer counter, like the live gauges).
	fmt.Fprintf(w, "# HELP cadd_trace_drops_total Push traces evicted from a stream's fixed-size trace ring.\n# TYPE cadd_trace_drops_total counter\n")
	for _, st := range s.streamsByID("") {
		writeGauge(w, "cadd_trace_drops_total", labels("stream", st.id), float64(st.traceDropped()))
	}
	// SLO objective and multi-window burn-rate gauges for streams with
	// an objective configured, computed from each stream's rolling
	// windows at scrape time.
	s.writeSLOMetrics(w)
	// Memory-governance gauges, read from the registry and the ledger.
	resident, hibernated := s.stateCounts()
	fmt.Fprintf(w, "# HELP cadd_resident_streams Streams with detector state in memory.\n# TYPE cadd_resident_streams gauge\n")
	writeGauge(w, "cadd_resident_streams", "", float64(resident))
	fmt.Fprintf(w, "# HELP cadd_hibernated_streams Streams whose state is journaled to disk and dropped from memory.\n# TYPE cadd_hibernated_streams gauge\n")
	writeGauge(w, "cadd_hibernated_streams", "", float64(hibernated))
	fmt.Fprintf(w, "# HELP cadd_resident_bytes Estimated resident bytes of all live detector state (budget ledger total).\n# TYPE cadd_resident_bytes gauge\n")
	writeGauge(w, "cadd_resident_bytes", "", float64(s.AccountedBytes()))
}

// writeSLOMetrics emits per-stream SLO gauges: the configured latency
// objective and one burn-rate sample per rolling window. Headers are
// emitted only when at least one resident stream has an objective, so
// SLO-less deployments scrape an unchanged exposition.
func (s *Server) writeSLOMetrics(w io.Writer) {
	type sloRow struct {
		id  string
		slo *obs.SLO
	}
	var rows []sloRow
	for _, st := range s.streamsByID("") {
		if st.slo != nil {
			rows = append(rows, sloRow{id: st.id, slo: st.slo})
		}
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP cadd_slo_push_objective_seconds Push-latency SLO objective: at most 1%% of pushes may exceed this.\n# TYPE cadd_slo_push_objective_seconds gauge\n")
	for _, row := range rows {
		writeGauge(w, "cadd_slo_push_objective_seconds", labels("stream", row.id), row.slo.Objective())
	}
	fmt.Fprintf(w, "# HELP cadd_slo_push_burn_rate Error-budget burn rate per rolling window (1 = consuming budget exactly at the sustainable rate).\n# TYPE cadd_slo_push_burn_rate gauge\n")
	for _, row := range rows {
		for _, br := range row.slo.BurnRates() {
			writeGauge(w, "cadd_slo_push_burn_rate", labels("stream", row.id, "window", br.Window), br.Rate)
		}
	}
}

// handleReports serves every registered stream's report in one
// response, keyed by stream id — the bulk form the cluster router
// scatter-gathers so a cross-cluster report is one request per node
// rather than one per stream. Hibernated streams are rehydrated, like
// the single-stream endpoint would.
func (s *Server) handleReports(w http.ResponseWriter, _ *http.Request) {
	out := make(map[string]json.RawMessage)
	for _, info := range s.ListStreams() {
		st, err := s.acquire(info.ID)
		if err != nil {
			continue // deleted between the listing and the acquire
		}
		var buf bytes.Buffer
		if err := core.WriteReportJSON(&buf, st.report()); err != nil {
			writeError(w, http.StatusInternalServerError, "encoding report for %q: %v", info.ID, err)
			return
		}
		out[info.ID] = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleAdminStreams serves the read-only memory-governance view:
// every registered stream with its residency state, estimated resident
// bytes, last-push time and arrival index. It never rehydrates.
func (s *Server) handleAdminStreams(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.AdminStreams())
}

// streamsByID returns resident streams ordered by id — all of them
// for filter "", or just the named one (empty slice when unknown or
// hibernated; a hibernated stream has no tracer to read and is never
// rehydrated just to look at its traces).
func (s *Server) streamsByID(filter string) []*stream {
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.streams))
	for id, e := range s.streams {
		if filter != "" && id != filter {
			continue
		}
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	streams := make([]*stream, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		if e.st != nil {
			streams = append(streams, e.st)
		}
		e.mu.Unlock()
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })
	return streams
}

// streamTracesJSON is one stream's entry in the /debug/traces default
// format.
type streamTracesJSON struct {
	Stream string `json:"stream"`
	// Instance names the cluster node the traces were recorded on
	// (omitted outside cluster mode). The router's scatter-gather merge
	// relies on it: span ids are only namespaced per node, so without
	// the tag, traces from different nodes would interleave
	// indistinguishably.
	Instance string `json:"instance,omitempty"`
	// Retained is the number of traces currently in the ring; Dropped
	// counts older ones evicted by its fixed capacity.
	Retained int             `json:"retained"`
	Dropped  uint64          `json:"dropped"`
	Traces   []obs.TraceJSON `json:"traces"`
}

// handleTraces serves the retained push traces. Default: a JSON array
// of per-stream span trees. ?stream= filters to one stream; ?trace=
// filters to the spans of one distributed trace id (across streams);
// ?format=chrome emits the Chrome trace_event form (load the response
// in chrome://tracing or ui.perfetto.dev).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("stream")
	traceID := r.URL.Query().Get("trace")
	streams := s.streamsByID(filter)
	if filter != "" && len(streams) == 0 && !s.exists(filter) {
		writeError(w, http.StatusNotFound, "unknown stream %q", filter)
		return
	}

	if r.URL.Query().Get("format") == "chrome" {
		var all []*obs.Span
		for _, st := range streams {
			all = append(all, filterTraces(st.traces(), traceID)...)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteChrome(w, all); err != nil {
			writeError(w, http.StatusInternalServerError, "encoding traces: %v", err)
		}
		return
	}

	out := make([]streamTracesJSON, 0, len(streams))
	for _, st := range streams {
		traces := filterTraces(st.traces(), traceID)
		if traceID != "" && len(traces) == 0 {
			continue // keep the trace-scoped view free of empty entries
		}
		entry := streamTracesJSON{
			Stream:   st.id,
			Instance: s.cfg.NodeID,
			Retained: len(traces),
			Dropped:  st.traceDropped(),
			Traces:   make([]obs.TraceJSON, len(traces)),
		}
		for i, tr := range traces {
			entry.Traces[i] = tr.ToJSON()
		}
		out = append(out, entry)
	}
	writeJSON(w, http.StatusOK, out)
}

// filterTraces keeps the roots whose trace_id attribute matches id
// (all of them for id "").
func filterTraces(traces []*obs.Span, id string) []*obs.Span {
	if id == "" {
		return traces
	}
	var out []*obs.Span
	for _, tr := range traces {
		if a, ok := tr.Attr(obs.AttrTraceID); ok && a.Str == id {
			out = append(out, tr)
		}
	}
	return out
}

func (s *Server) handleListStreams(w http.ResponseWriter, _ *http.Request) {
	infos := s.ListStreams()
	if infos == nil {
		infos = []StreamInfo{}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleCreateStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var cfg StreamConfig
	if r.ContentLength != 0 {
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&cfg); err != nil {
			writeError(w, http.StatusBadRequest, "bad stream config: %v", err)
			return
		}
	}
	if err := s.CreateStream(id, cfg); err != nil {
		status := http.StatusBadRequest
		if s.exists(id) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	info, _ := s.StreamInfo(id)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleStreamInfo(w http.ResponseWriter, r *http.Request) {
	info, ok := s.StreamInfo(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown stream %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.DeleteStream(id) {
		writeError(w, http.StatusNotFound, "unknown stream %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePostSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.exists(id) {
		writeError(w, http.StatusNotFound, "unknown stream %q", id)
		return
	}
	var snap Snapshot
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSnapshotBytes)).Decode(&snap); err != nil {
		writeError(w, http.StatusBadRequest, "bad snapshot: %v", err)
		return
	}
	// Two addressing modes: external-ID snapshots are validated here but
	// mapped to dense indices by the stream's worker (which owns the
	// vertex table); raw index snapshots are built into a graph up front.
	var g *graph.Graph
	var snapRef *Snapshot
	if snap.IDs != nil {
		if err := snap.validateIDs(); err != nil {
			writeError(w, http.StatusBadRequest, "bad snapshot: %v", err)
			return
		}
		snapRef = &snap
	} else {
		var err error
		g, err = snap.Graph()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad snapshot: %v", err)
			return
		}
	}
	sync := r.URL.Query().Get("sync") == "1"
	// ?instance=N asserts the arrival index, making the push idempotent
	// under at-least-once retries (see stream.enqueue).
	expected := int64(-1)
	if v := r.URL.Query().Get("instance"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad instance index %q", v)
			return
		}
		expected = n
	}
	// Distributed trace context: continue the caller's trace (the
	// router's, or a client minting its own header) or start a fresh
	// one, mint this node's namespaced span id, and echo the context in
	// the response so the client can fetch the stitched trace by id.
	pc := pushContext{requestID: requestID(r.Context())}
	if tc, ok := obs.ParseTraceHeader(r.Header); ok {
		pc.traceID, pc.parentSpanID = tc.TraceID, tc.SpanID
	} else {
		pc.traceID = obs.NewTraceID()
	}
	pc.spanID = obs.NewSpanID(s.cfg.NodeID)
	obs.TraceContext{TraceID: pc.traceID, SpanID: pc.spanID}.SetHeader(w.Header())
	res, err := s.push(id, g, snapRef, sync, pc, expected)
	switch {
	case errors.Is(err, errUnknownStream):
		writeError(w, http.StatusNotFound, "unknown stream %q", id)
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "stream %q: ingest queue full", id)
		return
	case errors.Is(err, errStreamClosed):
		writeError(w, http.StatusConflict, "stream %q is closed", id)
		return
	case errors.Is(err, errOutOfOrder):
		writeError(w, http.StatusConflict, "stream %q: %v", id, err)
		return
	case err != nil:
		// The snapshot was accepted but scoring failed (e.g. a shrinking
		// vertex count, or mixing raw-index and external-ID snapshots on
		// one stream). The arrival cursor is rolled back, so a corrected
		// retry at the same ?instance index succeeds.
		writeError(w, http.StatusUnprocessableEntity, "stream %q: %v", id, err)
		return
	}
	status := http.StatusOK
	if res.Queued {
		status = http.StatusAccepted
	}
	writeJSON(w, status, res)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.acquire(id)
	if err != nil {
		writeAcquireError(w, id, err)
		return
	}
	rep := st.report()
	w.Header().Set("Content-Type", "application/json")
	// The canonical shared encoding: byte-identical to cadrun -json.
	if err := core.WriteReportJSON(w, rep); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding report: %v", err)
	}
}

func (s *Server) handleTransition(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.acquire(id)
	if err != nil {
		writeAcquireError(w, id, err)
		return
	}
	t, err := strconv.Atoi(r.PathValue("t"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad transition index %q", r.PathValue("t"))
		return
	}
	tr, ok := st.transition(t)
	if !ok {
		writeError(w, http.StatusNotFound, "stream %q has no transition %d in its retained history", id, t)
		return
	}
	writeJSON(w, http.StatusOK, tr.JSON())
}
