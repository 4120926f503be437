// Package service is the serving layer around the streaming detector:
// a long-running HTTP server (cmd/cadd) that maintains many
// independent named detection streams, each wrapping a
// core.OnlineDetector behind a single worker goroutine and a bounded
// ingest queue.
//
// The API surface (all JSON):
//
//	PUT    /v1/streams/{id}                 create a stream (StreamConfig body)
//	GET    /v1/streams                      list streams (StreamInfo array)
//	GET    /v1/streams/{id}                 one stream's status
//	DELETE /v1/streams/{id}                 stop and drop a stream
//	POST   /v1/streams/{id}/snapshots       ingest one graph instance
//	                                        (?sync=1 waits and returns the
//	                                        newest transition's report;
//	                                        429 when the queue is full)
//	GET    /v1/streams/{id}/report          re-thresholded history
//	                                        (byte-identical to cadrun -json)
//	GET    /v1/streams/{id}/transitions/{t} one transition at the current δ
//	GET    /healthz                         liveness
//	GET    /metrics                         Prometheus text format
//	GET    /streams                         memory-governance view: every
//	                                        stream's residency state and
//	                                        estimated resident bytes
//
// Concurrency discipline: core.OnlineDetector is not safe for
// concurrent use, so every detector access — the worker's Push and any
// handler's Report — happens under the stream's mutex, with the worker
// goroutine as the only Pusher. `go test -race ./internal/service/...`
// exercises this under overlapping multi-stream load.
//
// Memory governance (see docs/MEMORY.md): with durability on, a byte
// budget or idle policy hibernates cold streams — final snapshot
// journaled, worker stopped, state dropped — and the next access
// rehydrates them bit-exactly and transparently.
package service

import (
	"fmt"
	"math"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// StreamConfig configures a detection stream at creation time. The
// zero value is a usable default (CAD variant, l=5, the detector
// package's embedding and cutoff defaults, queue of 64, unbounded
// history).
type StreamConfig struct {
	// Variant is "cad" (default), "adj" or "com".
	Variant string `json:"variant,omitempty"`
	// L is the anomalous-node budget per transition for auto-δ
	// (default 5).
	L float64 `json:"l,omitempty"`
	// K is the commute-embedding dimension for large graphs.
	K int `json:"k,omitempty"`
	// Seed makes the randomized embedding reproducible.
	Seed int64 `json:"seed,omitempty"`
	// ExactCutoff: graphs with at most this many vertices use the
	// exact O(n³) commute oracle (0 = the package default of 400).
	ExactCutoff int `json:"exact_cutoff,omitempty"`
	// Workers parallelizes each oracle's Laplacian solves.
	Workers int `json:"workers,omitempty"`
	// SharedProjections shares one set of projection streams across all
	// snapshots (common random numbers), which lets each embedding
	// rebuild warm-start from the previous one — the fast path for
	// sparse streams of small edits. Off by default, matching the
	// paper's independent per-instance projections.
	SharedProjections bool `json:"shared_projections,omitempty"`
	// IncrementalUpdates lets an embedding rebuild skip the solver
	// entirely when consecutive snapshots differ by only a few edges,
	// applying a low-rank (Woodbury) correction to the previous
	// embedding instead; the warm path remains the automatic fallback.
	// Requires SharedProjections.
	IncrementalUpdates bool `json:"incremental_updates,omitempty"`
	// IncrementalMaxEdits overrides the incremental path's edit budget
	// (default: k/4 edited edges).
	IncrementalMaxEdits int `json:"incremental_max_edits,omitempty"`
	// SparsifyTargetNNZ, when positive, caps each snapshot at roughly
	// this many Laplacian non-zeros (≈ 2× the edge count) by
	// effective-resistance edge sampling before the solver runs. The
	// first snapshot is never sparsified (no resistance estimates yet).
	SparsifyTargetNNZ int `json:"sparsify_target_nnz,omitempty"`
	// SolverTol is the embedding solver's relative residual target
	// (0 = the solver default of 1e-8). Streams whose scores tolerate
	// it typically serve at 1e-5; a looser tolerance also gives the
	// incremental path's residual certificate the headroom it spends
	// to skip verification solves.
	SolverTol float64 `json:"solver_tol,omitempty"`
	// QueueSize bounds the ingest queue; snapshots beyond it are
	// rejected with HTTP 429 (0 = server default).
	QueueSize int `json:"queue_size,omitempty"`
	// MaxHistory bounds the retained transition history (see
	// core.OnlineDetector.SetMaxHistory); 0 keeps everything.
	MaxHistory int `json:"max_history,omitempty"`
	// TraceBuffer is the number of recent push traces retained for
	// /debug/traces (0 = server default of 64; negative disables
	// tracing for this stream).
	TraceBuffer int `json:"trace_buffer,omitempty"`
	// SlowPushSeconds triggers a WARN log with a full per-stage
	// breakdown for pushes slower than this. 0 (default) adapts the
	// threshold to ≈1.5× the stream's observed p99; negative disables
	// slow-push logging.
	SlowPushSeconds float64 `json:"slow_push_seconds,omitempty"`
	// SLOPushSeconds is the stream's push-latency SLO objective in
	// seconds: at most 1% of pushes may take longer (a p99 objective).
	// Multi-window burn rates against it are exported as
	// cadd_slo_push_burn_rate and in /statusz. 0 inherits the server
	// default (Config.SLOPushP99, itself off by default); negative
	// disables the objective for this stream.
	SLOPushSeconds float64 `json:"slo_push_seconds,omitempty"`
}

func (c StreamConfig) withDefaults(defaultQueue, defaultTrace int) StreamConfig {
	if c.Variant == "" {
		c.Variant = "cad"
	}
	if c.L <= 0 {
		c.L = 5
	}
	if c.QueueSize <= 0 {
		c.QueueSize = defaultQueue
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = defaultTrace
	}
	return c
}

// coreConfig builds the detector configuration this stream config
// describes — the single place the mapping lives, shared by stream
// creation and journal recovery (where the persisted config, seed
// included, must rebuild an identical detector).
func (c StreamConfig) coreConfig() (core.Config, error) {
	variant, err := c.variant()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Variant: variant,
		Commute: commute.Config{
			K:                   c.K,
			Seed:                c.Seed,
			Workers:             c.Workers,
			SharedProjections:   c.SharedProjections,
			IncrementalUpdates:  c.IncrementalUpdates,
			IncrementalMaxEdits: c.IncrementalMaxEdits,
			SparsifyTargetNNZ:   c.SparsifyTargetNNZ,
			Solver:              solver.Options{Tol: c.SolverTol},
		},
		ExactCutoff: c.ExactCutoff,
	}, nil
}

// variant parses the config's variant name.
func (c StreamConfig) variant() (core.Variant, error) {
	switch c.Variant {
	case "", "cad":
		return core.VariantCAD, nil
	case "adj":
		return core.VariantADJ, nil
	case "com":
		return core.VariantCOM, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want cad, adj or com)", c.Variant)
	}
}

// SnapshotEdge is one weighted edge of a snapshot.
type SnapshotEdge struct {
	I int     `json:"i"`
	J int     `json:"j"`
	W float64 `json:"w"`
}

// Snapshot is one graph instance posted to a stream.
//
// Two addressing modes exist, fixed per stream by its first snapshot:
//
//   - Raw index mode (IDs nil): N is required, edges address dense
//     vertex indices 0..N-1 directly, and N may grow but never shrink
//     across the stream's life (the paper's fixed-V framework is the
//     special case of a constant N).
//   - External-ID mode (IDs set): IDs names this snapshot's vertices
//     with stable external identifiers (len(IDs) == N, unique,
//     non-empty) and edges address positions in IDs. The stream
//     interns IDs in arrival order into its vertex table — an ID seen
//     before keeps its dense index forever — so the posted snapshot
//     may introduce vertices freely and omit known ones (they simply
//     have no edges that instant).
//
// Mixing modes on one stream is refused, as is combining IDs with
// Labels (the interned IDs become the vertex labels).
type Snapshot struct {
	N      int            `json:"n"`
	Edges  []SnapshotEdge `json:"edges"`
	Labels []string       `json:"labels,omitempty"`
	IDs    []string       `json:"ids,omitempty"`
}

// checkN bounds the declared vertex count to 1..maxSnapshotVertices.
func (s Snapshot) checkN() error {
	if s.N <= 0 {
		return fmt.Errorf("snapshot needs n > 0, got %d", s.N)
	}
	if s.N > maxSnapshotVertices {
		return fmt.Errorf("snapshot n=%d exceeds the limit of %d vertices", s.N, maxSnapshotVertices)
	}
	return nil
}

// Graph validates and builds the snapshot's graph (raw index mode).
func (s Snapshot) Graph() (*graph.Graph, error) {
	if err := s.checkN(); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, len(s.Edges))
	for i, e := range s.Edges {
		edges[i] = graph.Edge{I: e.I, J: e.J, W: e.W}
	}
	return graph.FromEdges(s.N, edges, s.Labels)
}

// validateIDs checks the shape of an external-ID snapshot before it is
// queued: the ID slice matches N and is usable as a mapping (unique,
// non-empty), edges address ID positions, and weights are already
// known-good — the checks a raw-mode push gets from Graph(), performed
// here so a malformed body is a 400 at the handler rather than a
// scoring failure in the worker.
func (s Snapshot) validateIDs() error {
	if err := s.checkN(); err != nil {
		return err
	}
	if len(s.IDs) != s.N {
		return fmt.Errorf("snapshot has %d ids for n=%d vertices", len(s.IDs), s.N)
	}
	if s.Labels != nil {
		return fmt.Errorf("snapshot cannot combine ids with labels (interned ids become the labels)")
	}
	seen := make(map[string]struct{}, len(s.IDs))
	for i, id := range s.IDs {
		if id == "" {
			return fmt.Errorf("snapshot id at position %d is empty", i)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("snapshot id %q appears more than once", id)
		}
		seen[id] = struct{}{}
	}
	for _, e := range s.Edges {
		if e.I < 0 || e.I >= s.N || e.J < 0 || e.J >= s.N {
			return fmt.Errorf("edge (%d,%d) out of range for n=%d", e.I, e.J, s.N)
		}
		if e.W < 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return fmt.Errorf("edge (%d,%d) has invalid weight %g", e.I, e.J, e.W)
		}
	}
	return nil
}

// graphWithTable interns the snapshot's IDs into vt (in slice order)
// and builds the dense graph over every vertex interned so far —
// vertices from earlier snapshots absent here simply carry no edges.
// It returns the graph and the newly interned IDs in dense-index
// order. On error vt may hold the partial interns; the caller rolls
// back with vt.Truncate.
func (s Snapshot) graphWithTable(vt *graph.VertexTable) (*graph.Graph, []string, error) {
	dense := make([]int, len(s.IDs))
	var newIDs []string
	for i, id := range s.IDs {
		idx, added := vt.Intern(id)
		dense[i] = idx
		if added {
			newIDs = append(newIDs, id)
		}
	}
	edges := make([]graph.Edge, len(s.Edges))
	for i, e := range s.Edges {
		edges[i] = graph.Edge{I: dense[e.I], J: dense[e.J], W: e.W}
	}
	g, err := graph.FromEdges(vt.Len(), edges, vt.IDs())
	if err != nil {
		return nil, nil, err
	}
	return g, newIDs, nil
}

// SnapshotFromGraph converts a graph to its wire form (the client's
// send path).
func SnapshotFromGraph(g *graph.Graph) Snapshot {
	ge := g.Edges()
	s := Snapshot{N: g.N(), Edges: make([]SnapshotEdge, len(ge))}
	for i, e := range ge {
		s.Edges[i] = SnapshotEdge{I: e.I, J: e.J, W: e.W}
	}
	return s
}

// PushResult is the response to a snapshot POST.
type PushResult struct {
	Stream string `json:"stream"`
	// Instance is the 0-based arrival index assigned at enqueue.
	Instance int `json:"instance"`
	// Queued is true for asynchronous accepts (the snapshot is in the
	// queue but not yet scored).
	Queued bool `json:"queued,omitempty"`
	// Duplicate is true when an instance-indexed push named an arrival
	// index the stream has already accepted: the snapshot was not
	// re-scored, and the ack is the idempotent-retry success path.
	Duplicate bool `json:"duplicate,omitempty"`
	// Report is the newest transition's anomaly report at the freshly
	// re-selected δ; only present for ?sync=1 pushes after the first
	// instance.
	Report *core.TransitionJSON `json:"report,omitempty"`
	// Delta is the stream's threshold after this push (sync only).
	Delta float64 `json:"delta,omitempty"`
}

// Stream residency states, as reported by StreamInfo.State and the
// /streams admin endpoint.
const (
	// StreamStateResident: detector state in memory, worker running.
	StreamStateResident = "resident"
	// StreamStateHibernated: state journaled to disk and dropped from
	// memory; the next push or report rehydrates it transparently.
	StreamStateHibernated = "hibernated"
)

// StreamInfo is one stream's status snapshot.
type StreamInfo struct {
	ID     string       `json:"id"`
	Config StreamConfig `json:"config"`
	// State is "resident" or "hibernated". For a hibernated stream the
	// counters below are the values captured at hibernation.
	State string `json:"state,omitempty"`
	// Ingested counts accepted snapshots; Processed those scored so
	// far; Rejected those bounced off the full queue with 429.
	Ingested  int64 `json:"ingested"`
	Processed int64 `json:"processed"`
	Rejected  int64 `json:"rejected"`
	// QueueDepth is the number of snapshots waiting in the queue.
	QueueDepth int `json:"queue_depth"`
	// Transitions is the retained scored-history length; Evicted the
	// number dropped by the max-history window.
	Transitions int `json:"transitions"`
	Evicted     int `json:"evicted"`
	// Delta is the current global threshold.
	Delta float64 `json:"delta"`
	// LastError is the most recent Push failure, if any ("" otherwise).
	LastError string `json:"last_error,omitempty"`
}

// AdminStreamInfo is one stream's memory-governance view, served by
// the read-only GET /streams admin endpoint: residency state, the
// ledger's estimated resident bytes (for a hibernated stream, the last
// figure before its state was dropped), the wall-clock time of the
// newest accepted snapshot, and the arrival index.
type AdminStreamInfo struct {
	ID    string `json:"id"`
	State string `json:"state"` // "resident" or "hibernated"
	// ResidentBytes is the estimated detector footprint (graph, oracle,
	// solver scratch, history, δ-cache) from the budget ledger.
	ResidentBytes int64 `json:"resident_bytes"`
	// LastPush is the RFC 3339 time of the newest accepted snapshot;
	// empty when the stream has never been pushed.
	LastPush string `json:"last_push,omitempty"`
	// Ingested is the arrival index: the number of accepted snapshots.
	Ingested int64 `json:"ingested"`
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// healthResponse is the /healthz body. Node is the serving cluster
// node's id, omitted outside cluster mode.
type healthResponse struct {
	Status  string `json:"status"`
	Streams int    `json:"streams"`
	Node    string `json:"node,omitempty"`
}
