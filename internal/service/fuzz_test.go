package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/wal"
)

// maxFuzzVertices bounds the vertex count a fuzzed snapshot may declare,
// so one run stays small in memory. Bounding N on disk is a separate
// concern from the restore boundary fuzzed here.
const maxFuzzVertices = 1 << 12

// FuzzSnapshotBody feeds bytes through the push body boundary the way
// handlePostSnapshot does: JSON decode into a Snapshot, then Graph() in
// raw index mode, or validateIDs plus graphWithTable on a fresh vertex
// table in external-ID mode. Whatever the bytes, nothing may panic; an
// accepted body yields a graph with its declared vertex count, and one
// declaring more than maxSnapshotVertices is refused. Bodies declaring
// between maxFuzzVertices and maxSnapshotVertices vertices are skipped,
// so one run stays small in memory.
func FuzzSnapshotBody(f *testing.F) {
	f.Add([]byte(`{"n":4611686018427387904,"edges":[]}`))
	f.Add([]byte(`{"n":3,"edges":[{"i":0,"j":1,"w":1},{"i":1,"j":2,"w":2.5}],"labels":["a","b","c"]}`))
	f.Add([]byte(`{"n":3,"ids":["ann","bob","cat"],"edges":[{"i":0,"j":2,"w":1}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var snap Snapshot
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
			return
		}
		if snap.N > maxFuzzVertices && snap.N <= maxSnapshotVertices {
			return
		}
		var g *graph.Graph
		var err error
		if snap.IDs != nil {
			if err = snap.validateIDs(); err == nil {
				g, _, err = snap.graphWithTable(graph.NewVertexTable())
			}
		} else {
			g, err = snap.Graph()
		}
		switch {
		case snap.N > maxSnapshotVertices && err == nil:
			t.Fatalf("n=%d above the %d-vertex cap accepted", snap.N, maxSnapshotVertices)
		case err == nil && g.N() != snap.N:
			t.Fatalf("accepted n=%d built a %d-vertex graph", snap.N, g.N())
		}
	})
}

// FuzzRestoreSnapshot feeds bytes through the restore boundary that a
// rehydration, a boot recovery and a promotion all cross — snapshot
// decode, conversion to detector state, core.RestoreOnline — and, when
// the restore succeeds, one scoring push. regime picks the stream
// configuration (oracleRegimes). Whatever the bytes, nothing may panic:
// a malformed snapshot comes back as an error. The seeds are real
// snapshots of every regime, with and without the oracle block.
func FuzzRestoreSnapshot(f *testing.F) {
	seq := reweightStream(24, 5, 29)
	for regime, rg := range oracleRegimes {
		st := uninterrupted(f, rg.cfg, seq, seq.T()).State()
		cfgJSON, err := json.Marshal(rg.cfg)
		if err != nil {
			f.Fatal(err)
		}
		for _, withOracle := range []bool{true, false} {
			s := st
			if !withOracle {
				s.Oracle = nil
			}
			payload, err := wal.EncodeSnapshot(snapshotFromState(cfgJSON, &s, 1))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(regime), payload)
		}
	}
	f.Fuzz(func(t *testing.T, regime uint8, payload []byte) {
		snap, err := wal.DecodeSnapshot(payload)
		if err != nil {
			return
		}
		if snap.N > maxFuzzVertices || (snap.Prev != nil && snap.Prev.N > maxFuzzVertices) {
			return
		}
		st, err := stateFromSnapshot(snap)
		if err != nil {
			return
		}
		cfg := oracleRegimes[int(regime)%len(oracleRegimes)].cfg.withDefaults(1, 0)
		ccfg, err := cfg.coreConfig()
		if err != nil {
			t.Fatal(err)
		}
		det, err := core.RestoreOnline(ccfg, cfg.L, st)
		if err != nil {
			return
		}
		det.SetMaxHistory(cfg.MaxHistory)
		if g, err := nextInstance(st.Prev); err == nil {
			_, _ = det.Push(g)
		}
	})
}

// nextInstance is prev with its first edge reweighted, or a 3-vertex
// path when prev is absent or has no edge.
func nextInstance(prev *graph.Graph) (*graph.Graph, error) {
	if prev == nil || prev.NumEdges() == 0 {
		n := 3
		if prev != nil && prev.N() > n {
			n = prev.N()
		}
		return graph.FromEdges(n, []graph.Edge{{I: 0, J: 1, W: 1}, {I: 1, J: 2, W: 1}}, nil)
	}
	edges := prev.Edges()
	edges[0].W = edges[0].W/2 + 1
	return graph.FromEdges(prev.N(), edges, prev.Labels())
}
