package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// countersPath is the committed counters record at the repository root.
var countersPath = filepath.Join("..", "..", "BENCH_counters.json")

// counterShape is what one row of BENCH_counters.json measured.
type counterShape struct {
	Shape string  `json:"shape"`
	Mode  string  `json:"mode"`
	N     int     `json:"n"`
	M     int     `json:"m"`
	K     int     `json:"k"`
	Tol   float64 `json:"tol"`
	Edits int     `json:"edits"`
	Ops   int     `json:"ops"`
}

// counterCell is one (shape, mode) row of BENCH_counters.json. Counters
// are means per op (a push, or a build for the block shape) under
// pushbench's per-layer metric names.
type counterCell struct {
	counterShape
	Counters map[string]float64 `json:"counters"`
}

// countersFile is the BENCH_counters.json document.
type countersFile struct {
	Seed  int64         `json:"seed"`
	Cells []counterCell `json:"cells"`
}

// countersSeed seeds every shape's graphs and projections.
const countersSeed = 1

// TestPushCounters replays the streaming oracle's three cost shapes and
// compares their deterministic counters with the committed
// BENCH_counters.json: PCG and block iterations, Woodbury base solves,
// verify skips, the share of pushes on the Woodbury path and heap
// allocations per op. A counter outside its band (countersWithin)
// fails; wall-clock is logged and never gated. The shapes, all at seed
// 1 on the spanning-path-plus-chords family (benchBase):
//
//   - stream: n=1000, k=12, tol 1e-5, four reweights per snapshot; 12
//     pushes after one cold push, cold (fresh projections per push)
//     against warm (SharedProjections).
//   - block: n=2000, k=24, tol 1e-8 (the solver's default); one
//     commute.NewEmbedding build cold, then one warm from it across
//     four reweights.
//   - incremental: n=1000, k=12, tol 1e-5, a chain of 1, 4, 16 or 64
//     distinct reweights per snapshot; 10 pushes warm against the
//     Woodbury path (IncrementalMaxEdits 64).
//
// After an intentional change to a counter, regenerate with
//
//	go test ./internal/core -run '^TestPushCounters$' -update
//
// and audit the diff.
func TestPushCounters(t *testing.T) {
	got := countersFile{Seed: countersSeed}
	add := func(c counterCell, elapsed time.Duration) {
		t.Logf("%-11s %-11s n=%d edits=%d: %.2f ms/op %v", c.Shape, c.Mode, c.N, c.Edits,
			float64(elapsed.Nanoseconds())/1e6/float64(c.Ops), c.Counters)
		got.Cells = append(got.Cells, c)
	}

	stream := benchSnapshots(countersSeed, 1000, 9)
	for _, mode := range []string{"cold", "warm"} {
		ccfg := commute.Config{K: 12, Seed: countersSeed, Solver: solver.Options{Tol: 1e-5}, SharedProjections: mode == "warm"}
		add(measurePushes(t, newShape("stream", mode, stream[0], ccfg, 4, 12), ccfg, stream))
	}

	block := benchSnapshots(countersSeed, 2000, 2)
	ccfg := commute.Config{K: 24, Seed: countersSeed, Solver: solver.Options{Tol: 1e-8}, SharedProjections: true}
	var prev *commute.Embedding
	for i, mode := range []string{"cold", "warm"} {
		start := time.Now()
		emb, err := commute.NewEmbedding(block[i], prev, ccfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		add(counterCell{newShape("block", mode, block[i], ccfg, 4, 1), map[string]float64{
			"solver.pcg_iters":   float64(emb.Stats().PCGIterations),
			"solver.block_iters": float64(emb.Stats().BlockIterations),
		}}, time.Since(start))
		prev = emb
	}

	for _, edits := range []int{1, 4, 16, 64} {
		chain := benchChain(countersSeed, 1000, edits, 11)
		for _, mode := range []string{"warm", "incremental"} {
			ccfg := commute.Config{K: 12, Seed: countersSeed, Solver: solver.Options{Tol: 1e-5}, SharedProjections: true}
			if mode == "incremental" {
				ccfg.IncrementalUpdates, ccfg.IncrementalMaxEdits = true, 64
			}
			add(measurePushes(t, newShape("incremental", mode, chain[0], ccfg, edits, 10), ccfg, chain))
		}
	}

	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateGolden {
		if err := os.WriteFile(countersPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(countersPath)
	if err != nil {
		t.Fatal(err)
	}
	var want countersFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", countersPath, err)
	}
	if want.Seed != got.Seed || len(want.Cells) != len(got.Cells) {
		t.Fatalf("%s holds seed %d and %d cells, the test measures seed %d and %d cells; regenerate with -update",
			countersPath, want.Seed, len(want.Cells), got.Seed, len(got.Cells))
	}
	for i, w := range want.Cells {
		g := got.Cells[i]
		if w.counterShape != g.counterShape || len(w.Counters) != len(g.Counters) {
			t.Errorf("cell %d: committed %+v, measured %+v; regenerate with -update", i, w, g)
			continue
		}
		names := make([]string, 0, len(w.Counters))
		for name := range w.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if gv, ok := g.Counters[name]; !ok || !countersWithin(name, gv, w.Counters[name], w.Ops) {
				t.Errorf("%s/%s edits=%d: %s = %g, committed %g", w.Shape, w.Mode, w.Edits, name, gv, w.Counters[name])
			}
		}
	}
}

// newShape describes a row measured on snapshots like g under ccfg.
func newShape(shape, mode string, g *graph.Graph, ccfg commute.Config, edits, ops int) counterShape {
	return counterShape{Shape: shape, Mode: mode, N: g.N(), M: g.NumEdges(), K: ccfg.K, Tol: ccfg.Solver.Tol, Edits: edits, Ops: ops}
}

// measurePushes pushes snaps[0] untimed (always a cold build), then
// s.Ops timed pushes cycling through snaps from snaps[1], and returns
// the per-push means of the oracle's counters and heap allocations.
func measurePushes(t *testing.T, s counterShape, ccfg commute.Config, snaps []*graph.Graph) (counterCell, time.Duration) {
	t.Helper()
	det := NewOnline(Config{Commute: ccfg, ExactCutoff: 1}, 5)
	det.SetMaxHistory(32)
	if _, err := det.Push(snaps[0]); err != nil {
		t.Fatal(err)
	}
	var pcg, blk, base, skipped, incremental int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for p := 0; p < s.Ops; p++ {
		if _, err := det.Push(snaps[(p+1)%len(snaps)]); err != nil {
			t.Fatalf("%s/%s push %d: %v", s.Shape, s.Mode, p, err)
		}
		st := det.LastOracleStats()
		pcg += st.PCGIterations
		blk += st.BlockIterations
		base += st.BaseSolves
		if st.VerifySkipped {
			skipped++
		}
		if st.Mode == "incremental" {
			incremental++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	ops := float64(s.Ops)
	return counterCell{s, map[string]float64{
		"solver.pcg_iters":             float64(pcg) / ops,
		"solver.block_iters":           float64(blk) / ops,
		"commute.base_solves":          float64(base) / ops,
		"commute.verify_skipped_share": float64(skipped) / ops,
		"commute.incremental_share":    float64(incremental) / ops,
		"core.allocs_per_push":         float64(ms1.Mallocs-ms0.Mallocs) / ops,
	}}, elapsed
}

// countersWithin is the band TestPushCounters holds a counter to:
// allocations within 10%; the Woodbury-path share exactly, which pins
// that every single-edge push takes that path; every other counter
// within 2%, or within one event in the run when that is wider, so a
// platform that fuses multiply-adds may shift one iteration.
func countersWithin(name string, got, want float64, ops int) bool {
	switch name {
	case "core.allocs_per_push":
		return math.Abs(got-want) <= 0.10*want
	case "commute.incremental_share":
		return got == want
	}
	return math.Abs(got-want) <= math.Max(0.02*want, 1/float64(ops))
}
