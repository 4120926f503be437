package commute

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// newEmbeddingPerRow is the per-row reference for the block build: the
// same solver setup NewEmbedding performs, then k independent width-1
// solves (the single-RHS PCG loop), each warm-started from prev's
// column when prev is reusable. It produces bit-identical embeddings to
// the block path (TestBlockBuildMatchesPerRowBitwise) and is the
// baseline of BenchmarkEmbeddingBlockedVsPerRow. It covers cold and
// warm builds only: no Woodbury correction.
func newEmbeddingPerRow(g *graph.Graph, prev *Embedding, cfg Config) (*Embedding, error) {
	if !cfg.reuses(prev, g) {
		prev = nil
	}
	var b solver.Build
	if prev != nil && prev.n == g.N() {
		diff, err := graph.DiffSupport(prev.g, g)
		if err != nil {
			return nil, err
		}
		b = solver.Build{Prev: prev.lap, PrevG: prev.g, Diff: diff}
	}
	n, k := g.N(), cfg.k()
	lap := solver.New(g, cfg.Solver, b)
	emb := &Embedding{n: n, k: k, volume: g.Volume(), z: make([]float64, n*k), g: g, lap: lap, key: cfg.key()}
	emb.stats = BuildStats{Rows: k, Warm: prev != nil, PrecondReused: lap.ReusedPrecond()}
	// Mirror the block path's re-centering rule (see Embedding.solve).
	recenter := prev != nil && !sameComponents(lap, prev.lap)
	edges := g.Edges()
	scale := 1 / math.Sqrt(float64(k))
	y := make([]float64, n)
	x := make([]float64, n)
	for row := 0; row < k; row++ {
		clear(y)
		projectionRHS(y, 1, 0, row, edges, cfg, scale)
		clear(x)
		if prev != nil {
			// On a grown vertex set only the retained vertices have
			// previous values; new vertices' entries start at zero.
			for i := 0; i < prev.n; i++ {
				x[i] = prev.z[i*k+row]
			}
			if recenter {
				lap.ProjectBlock(x, 1)
			}
		}
		st, err := lap.SolveBlock(x, y, 1, solver.Solve{Warm: prev != nil})
		emb.stats.PCGIterations += st[0].Iterations
		if err != nil {
			return nil, fmt.Errorf("commute: embedding row %d: %w", row, err)
		}
		for i := 0; i < n; i++ {
			emb.z[i*k+row] = x[i]
		}
	}
	return emb, nil
}

// The block build path must reproduce the per-row reference path
// bit-for-bit: the blocked PCG performs the same per-column arithmetic
// in the same order, cold and warm, for both projection modes.
func TestBlockBuildMatchesPerRowBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g0 := benchGraph(250)
	g1 := editGraph(rng, g0, 5)
	for _, shared := range []bool{false, true} {
		cfg := Config{K: 9, Seed: 13, SharedProjections: shared}
		blk, err := NewEmbedding(g0, nil, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newEmbeddingPerRow(g0, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if blk.stats.PCGIterations != ref.stats.PCGIterations {
			t.Fatalf("shared=%v: block build took %d PCG iterations, per-row %d",
				shared, blk.stats.PCGIterations, ref.stats.PCGIterations)
		}
		for i := range blk.z {
			if blk.z[i] != ref.z[i] {
				t.Fatalf("shared=%v: cold build differs at %d: %g vs %g", shared, i, blk.z[i], ref.z[i])
			}
		}
		if !shared {
			continue
		}
		// Warm rebuild across an edit: both paths start every column
		// from blk/ref's solutions and must stay bit-identical.
		wblk, err := NewEmbedding(g1, blk, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		wref, err := newEmbeddingPerRow(g1, ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !wblk.stats.Warm || !wref.stats.Warm {
			t.Fatal("warm rebuild did not take the warm path")
		}
		for i := range wblk.z {
			if wblk.z[i] != wref.z[i] {
				t.Fatalf("warm build differs at %d: %g vs %g", i, wblk.z[i], wref.z[i])
			}
		}
	}
}

// The block solver must report its traversal count: BlockIterations is
// the max per-row iteration count, positive on a real build, no larger
// than the per-row total, and zero on the free unchanged-graph rebuild.
func TestBlockIterationsStats(t *testing.T) {
	g := benchGraph(300)
	cfg := Config{K: 8, Seed: 3, SharedProjections: true}
	cold, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.BlockIterations <= 0 {
		t.Fatalf("cold build BlockIterations = %d, want > 0", st.BlockIterations)
	}
	if st.BlockIterations > st.PCGIterations {
		t.Fatalf("BlockIterations %d exceeds total PCGIterations %d", st.BlockIterations, st.PCGIterations)
	}
	warm, err := NewEmbedding(g, cold, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.BlockIterations != 0 || st.PCGIterations != 0 {
		t.Fatalf("unchanged-graph rebuild did work: %+v", st)
	}
}

// Workers shards SpMM rows inside the block solve; any worker count
// must yield the bit-identical embedding (the guarantee the old
// whole-solve sharding provided, preserved by row ownership). Run with
// -race this also gates the parallel SpMM for data races.
func TestBlockWorkersBitIdentical(t *testing.T) {
	g := benchGraph(700) // above the parallel kernel's serial cutoff
	cfg := Config{K: 6, Seed: 11, SharedProjections: true}
	seq, err := NewEmbedding(g, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		cfgw := cfg
		cfgw.Workers = w
		par, err := NewEmbedding(g, nil, cfgw, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq.z {
			if par.z[i] != seq.z[i] {
				t.Fatalf("workers=%d changed the embedding at %d: %g vs %g", w, i, par.z[i], seq.z[i])
			}
		}
	}
}
