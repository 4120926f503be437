package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/solver"
)

// BlockConfig shapes the embedding-build benchmark: the k
// commute-embedding solves fused into one SpMM-driven blocked PCG,
// built cold and warm. The comparison against k independent per-row
// solves is BenchmarkEmbeddingBlockedVsPerRow in internal/commute, which
// runs the test-side per-row reference.
type BlockConfig struct {
	// Sizes is the list of vertex counts to sweep (default 2000, 5000).
	Sizes []int `json:"sizes"`
	// Builds is the number of timed builds per cell; one untimed build
	// precedes them. Zero selects 5.
	Builds int `json:"builds"`
	// Edits is the number of ±10% edge reweights between the base graph
	// and the warm-rebuild target. Zero selects 4.
	Edits int `json:"edits"`
	// K is the embedding dimension — the block width. Zero selects 24.
	K int `json:"k"`
	// Tol is the PCG relative-residual target. Zero keeps the library's
	// exactness default (1e-8): unlike the stream experiment, this one
	// measures the build itself, so the solver loop should dominate the
	// way it does in production cold builds.
	Tol float64 `json:"tol"`
	// Seed drives the base graph and the edit stream.
	Seed int64 `json:"seed"`
}

func (c BlockConfig) withDefaults() BlockConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2000, 5000}
	}
	if c.Builds <= 0 {
		c.Builds = 5
	}
	if c.Edits <= 0 {
		c.Edits = 4
	}
	if c.K <= 0 {
		c.K = 24
	}
	if c.Seed == 0 {
		c.Seed = 71
	}
	return c
}

// BlockCell is one (size, mode) measurement, averaged over the timed
// builds.
type BlockCell struct {
	N    int    `json:"n"`
	M    int    `json:"m"`
	Mode string `json:"mode"` // "cold" or "warm"
	// NsPerBuild is the mean wall-clock nanoseconds per embedding build.
	NsPerBuild float64 `json:"ns_per_build"`
	// PCGIters is the per-build PCG iteration count summed per column.
	PCGIters float64 `json:"pcg_iters"`
	// BlockIters is the per-build count of blocked-PCG iterations
	// (matrix traversals).
	BlockIters float64 `json:"block_iters"`
}

// BlockResult holds the measurement grid plus the configuration that
// produced it.
type BlockResult struct {
	Config BlockConfig `json:"config"`
	Cells  []BlockCell `json:"results"`
}

// Block times the blocked build path cold (from scratch) and warm
// (rebuilt across a few edge reweights from the previous solution
// block).
func Block(cfg BlockConfig) (*BlockResult, error) {
	cfg = cfg.withDefaults()
	res := &BlockResult{Config: cfg}
	scfg := StreamConfig{Seed: cfg.Seed, Edits: cfg.Edits}
	for _, n := range cfg.Sizes {
		snaps := streamSnapshots(scfg, n, 2)
		g0, g1 := snaps[0], snaps[1]
		ccfg := commute.Config{
			K:                 cfg.K,
			Seed:              cfg.Seed,
			Solver:            solver.Options{Tol: cfg.Tol},
			SharedProjections: true, // warm rebuilds need shared projections
		}
		// One untimed cold build warms the allocator and provides the
		// warm cells' previous solution block.
		base, err := commute.NewEmbedding(g0, nil, ccfg, nil)
		if err != nil {
			return nil, fmt.Errorf("block n=%d: %w", n, err)
		}
		for _, mode := range []string{"cold", "warm"} {
			g, prev := g0, (*commute.Embedding)(nil)
			if mode == "warm" {
				g, prev = g1, base
			}
			var iters, blkIters int
			start := time.Now()
			for b := 0; b < cfg.Builds; b++ {
				emb, err := commute.NewEmbedding(g, prev, ccfg, nil)
				if err != nil {
					return nil, fmt.Errorf("block n=%d %s: %w", n, mode, err)
				}
				st := emb.Stats()
				iters += st.PCGIterations
				blkIters += st.BlockIterations
			}
			elapsed := time.Since(start)
			res.Cells = append(res.Cells, BlockCell{
				N:          n,
				M:          g0.NumEdges(),
				Mode:       mode,
				NsPerBuild: float64(elapsed.Nanoseconds()) / float64(cfg.Builds),
				PCGIters:   float64(iters) / float64(cfg.Builds),
				BlockIters: float64(blkIters) / float64(cfg.Builds),
			})
		}
	}
	return res, nil
}

// Table renders the grid.
func (r *BlockResult) Table() *Table {
	tol := r.Config.Tol
	if tol == 0 {
		tol = 1e-8 // the solver default BlockConfig.Tol zero selects
	}
	t := &Table{
		Title:  fmt.Sprintf("embedding build: blocked multi-RHS PCG (k=%d, tol=%g)", r.Config.K, tol),
		Header: []string{"n", "m", "mode", "ms/build", "pcg-iters", "block-iters"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.N),
			fmt.Sprintf("%d", c.M),
			c.Mode,
			fmt.Sprintf("%.2f", c.NsPerBuild/1e6),
			fmt.Sprintf("%.1f", c.PCGIters),
			fmt.Sprintf("%.1f", c.BlockIters),
		})
	}
	return t
}

// WriteJSON emits the machine-readable benchmark record (the
// BENCH_block.json artifact).
func (r *BlockResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Experiment string      `json:"experiment"`
		Config     BlockConfig `json:"config"`
		Results    []BlockCell `json:"results"`
	}{Experiment: "block", Config: r.Config, Results: r.Cells})
}
