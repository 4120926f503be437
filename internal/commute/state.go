package commute

import (
	"fmt"
	"math"

	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// State is the part of an embedding that a durability layer persists so
// a restored stream scores its next instance without rebuilding the
// previous one. It holds what distance queries and the next
// NewEmbedding read and what is not a function of the graph:
//
//   - Z, the n×k coordinate block, always;
//   - Y, ResBound and NormB, the retained right-hand-side block and its
//     residual certificates, exactly when the build retained them
//     (IncrementalUpdates with SharedProjections);
//   - Forest, the solver's spanning forest, exactly when a
//     shared-projection solver uses the tree preconditioner (a patched
//     forest is not the one a fresh build would pick; see
//     solver.Forest).
//
// Everything else — the volume, the CSR Laplacian, component labels, a
// Jacobi diagonal — is recomputed from the graph by Restore.
type State struct {
	Z        []float64
	Y        []float64
	ResBound []float64
	NormB    []float64
	Forest   *solver.Forest
}

// State returns e's persistable state. The float blocks are shared,
// not copied: an embedding never writes them after its build. The
// forest is a fresh int32 copy, taken only from shared-projection
// embeddings: no build reuses a per-instance embedding's solver.
func (e *Embedding) State() State {
	st := State{Z: e.z, Y: e.y, ResBound: e.resBound, NormB: e.normB}
	if e.key.shared {
		st.Forest = e.lap.Forest()
	}
	return st
}

// Restore reinstates the embedding of g that st was taken from, as
// built under cfg: distances and the next NewEmbedding behave
// bit-identically to the original's. It refuses, with an error, a state
// whose shape does not match what a build of g under cfg holds (block
// lengths against n and k, which optional blocks are present, a forest
// that is not a spanning forest of g) and non-finite values. The
// slices of st are adopted, not copied.
func Restore(g *graph.Graph, st State, cfg Config) (*Embedding, error) {
	n, k := g.N(), cfg.k()
	if len(st.Z) != n*k {
		return nil, fmt.Errorf("commute: restore: z has %d values, want %d×%d", len(st.Z), n, k)
	}
	if retain := cfg.retainRHS(); retain != (st.Y != nil) || retain != (st.ResBound != nil) || retain != (st.NormB != nil) {
		return nil, fmt.Errorf("commute: restore: right-hand-side blocks present = %v/%v/%v, want %v",
			st.Y != nil, st.ResBound != nil, st.NormB != nil, retain)
	}
	if st.Y != nil && (len(st.Y) != n*k || len(st.ResBound) != k || len(st.NormB) != k) {
		return nil, fmt.Errorf("commute: restore: y/resBound/normB have %d/%d/%d values, want %d/%d/%d",
			len(st.Y), len(st.ResBound), len(st.NormB), n*k, k, k)
	}
	for _, block := range [][]float64{st.Z, st.Y, st.ResBound, st.NormB} {
		for _, v := range block {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("commute: restore: non-finite value %g", v)
			}
		}
	}
	emb := &Embedding{
		n:        n,
		k:        k,
		volume:   g.Volume(),
		z:        st.Z,
		g:        g,
		key:      cfg.key(),
		y:        st.Y,
		resBound: st.ResBound,
		normB:    st.NormB,
	}
	if !cfg.SharedProjections {
		if st.Forest != nil {
			return nil, fmt.Errorf("commute: restore: forest given for a per-instance embedding")
		}
		return emb, nil
	}
	lap, err := solver.Restore(g, cfg.Solver, st.Forest)
	if err != nil {
		return nil, fmt.Errorf("commute: restore: %w", err)
	}
	emb.lap = lap
	return emb, nil
}
