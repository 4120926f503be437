package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// Ablation: COM scored on all n² pairs versus the changed-adjacency
// support (the internal/core design decision) — plus the raw scoring
// and thresholding throughput that sits on CAD's critical path after
// the commute-time work.

func benchPair(n int) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(23))
	mk := func(perturb bool) *graph.Graph {
		b := graph.NewBuilder(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			b.AddEdge(perm[i-1], perm[i], 1)
		}
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				b.SetEdge(i, j, 0.5+rng.Float64())
			}
		}
		if perturb {
			for k := 0; k < n/10; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i != j {
					b.SetEdge(i, j, 2)
				}
			}
		}
		return b.MustBuild()
	}
	return mk(false), mk(true)
}

func BenchmarkCOMSupportAblation(b *testing.B) {
	const n = 300
	g0, g1 := benchPair(n)
	o0 := commute.NewExact(g0)
	o1 := commute.NewExact(g1)
	b.Run("allpairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = TransitionScores(g0, g1, o0, o1, VariantCOM, true)
		}
	})
	b.Run("diffsupport", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = TransitionScores(g0, g1, o0, o1, VariantCOM, false)
		}
	})
}

func BenchmarkTransitionScoresCAD(b *testing.B) {
	const n = 300
	g0, g1 := benchPair(n)
	o0 := commute.NewExact(g0)
	o1 := commute.NewExact(g1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TransitionScores(g0, g1, o0, o1, VariantCAD, false)
	}
}

func BenchmarkThresholdAndSelectDelta(b *testing.B) {
	const n = 300
	g0, g1 := benchPair(n)
	o0 := commute.NewExact(g0)
	o1 := commute.NewExact(g1)
	scores := TransitionScores(g0, g1, o0, o1, VariantCAD, false)
	trs := []Transition{{T: 0, Scores: scores, Total: TotalScore(scores)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := SelectDelta(trs, 10)
		_ = Threshold(trs, delta)
	}
}

// deltaSink keeps the benchmarked selections observable.
var deltaSink float64

// BenchmarkSelectDelta times one push's δ re-selection over a cached
// window of T transitions with E scored pairs each, l=3: the bisection
// against the merged-sort reference, which pays the breakpoint concat
// into reused scratch and the sort on every call. 32×30000 is the
// pushbench rewire window, 5000×3 a long unbounded history of
// few-edge transitions.
func BenchmarkSelectDelta(b *testing.B) {
	for _, shape := range []struct{ t, e, n int }{{32, 30000, 5000}, {2000, 50, 2000}, {5000, 3, 2000}} {
		rng := rand.New(rand.NewSource(83))
		trs := make([]Transition, shape.t)
		for t := range trs {
			scores := make([]EdgeScore, shape.e)
			for e := range scores {
				i, j := rng.Intn(shape.n), rng.Intn(shape.n-1)
				if j >= i {
					j++
				}
				scores[e] = EdgeScore{I: min(i, j), J: max(i, j), Score: rng.ExpFloat64()}
			}
			sortScores(scores)
			trs[t] = Transition{T: t, Scores: scores, Total: TotalScore(scores)}
		}
		steps := buildSteps(trs)
		name := fmt.Sprintf("%dx%d", shape.t, shape.e)
		b.Run(name+"/bisect", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deltaSink = selectDeltaFromSteps(steps, 3)
			}
		})
		b.Run(name+"/merged-sort", func(b *testing.B) {
			var scratch []float64
			selectDeltaMergedSort(steps, 3, &scratch) // grow the scratch, as a warm detector has
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltaSink = selectDeltaMergedSort(steps, 3, &scratch)
			}
		})
	}
}

func BenchmarkNodeScores(b *testing.B) {
	const n = 300
	g0, g1 := benchPair(n)
	o0 := commute.NewExact(g0)
	o1 := commute.NewExact(g1)
	scores := TransitionScores(g0, g1, o0, o1, VariantCAD, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NodeScores(n, scores)
	}
}

// benchSnapshots builds a sparse base graph (spanning path + ~2n random
// edges) and variants of it with a handful of edge edits each — the
// sparse-stream shape the incremental pipeline targets.
func benchSnapshots(n, count int) []*graph.Graph {
	rng := rand.New(rand.NewSource(71))
	base := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		base.AddEdge(perm[i-1], perm[i], 1)
	}
	for k := 0; k < 2*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			base.SetEdge(i, j, 0.5+rng.Float64())
		}
	}
	g0 := base.MustBuild()
	out := make([]*graph.Graph, count)
	out[0] = g0
	edges := g0.Edges()
	for v := 1; v < count; v++ {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.SetEdge(e.I, e.J, e.W)
		}
		// A handful of ±10% reweights of existing edges — the "same
		// actors, drifting intensities" regime of an email or traffic
		// stream, where consecutive instances are strongly correlated.
		for k := 0; k < 4; k++ {
			e := edges[rng.Intn(len(edges))]
			b.SetEdge(e.I, e.J, e.W*(0.9+0.2*rng.Float64()))
		}
		out[v] = b.MustBuild()
	}
	return out
}

// BenchmarkOnlinePushColdVsWarm measures the streaming hot path: one
// OnlineDetector Push per iteration over a cycle of lightly-edited
// snapshots, with the embedding oracle forced (ExactCutoff: 1). "cold"
// is the default configuration (independent projections, every build
// from scratch); "warm" enables SharedProjections so each build
// warm-starts from the previous embedding. The custom pcg-iters/push
// metric is the paper-level cost driver the wall clock follows.
//
// Solves run at Tol=1e-5: a k≈12 random projection carries O(1/√k) ≈
// 30% distance error, so the paper-exactness default of 1e-8 buys
// nothing for detection — 1e-5 is the tolerance a serving deployment
// would pick. (The warm/cold *ratio* depends on it: a warm start skips
// the residual decades between the inter-snapshot change magnitude and
// 1, so the looser the target, the larger the relative saving.)
//
// The first push of each run is performed before the timer starts:
// it is always a cold build (nothing to warm-start from), and the
// benchmark measures the steady-state per-push cost of each mode.
func BenchmarkOnlinePushColdVsWarm(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		snaps := benchSnapshots(n, 9)
		for _, mode := range []string{"cold", "warm"} {
			cfg := Config{
				Commute: commute.Config{
					K:                 12,
					Seed:              7,
					Solver:            solver.Options{Tol: 1e-5},
					SharedProjections: mode == "warm",
				},
				ExactCutoff: 1,
			}
			b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
				o := NewOnline(cfg, 5)
				o.SetMaxHistory(32)
				if _, err := o.Push(snaps[0]); err != nil {
					b.Fatal(err)
				}
				var iters, pushes int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := o.Push(snaps[(i+1)%len(snaps)]); err != nil {
						b.Fatal(err)
					}
					iters += o.LastOracleStats().PCGIterations
					pushes++
				}
				b.ReportMetric(float64(iters)/float64(pushes), "pcg-iters/push")
			})
		}
	}
}
