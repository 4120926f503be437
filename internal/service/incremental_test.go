package service

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dyngraph/internal/graph"
)

// smallEditSequence builds a stream whose consecutive snapshots differ
// by only one or two edges — the regime the incremental (Woodbury)
// build path targets. The base is the same two-cluster graph as
// testSequence; each step reweights one intra-cluster edge and every
// third step toggles one cross-cluster chord.
func smallEditSequence(t *testing.T, T int) *graph.Sequence {
	t.Helper()
	base := graph.NewBuilder(12)
	for c := 0; c < 2; c++ {
		off := c * 6
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				base.SetEdge(off+i, off+j, 2)
			}
		}
	}
	base.SetEdge(0, 6, 0.2)
	cur := base.MustBuild()

	gs := []*graph.Graph{cur}
	for s := 1; s < T; s++ {
		b := graph.NewBuilder(12)
		for _, e := range cur.Edges() {
			b.SetEdge(e.I, e.J, e.W)
		}
		i, j := s%5, 1+s%4
		if i >= j {
			i, j = j-1, i+1
		}
		b.SetEdge(i, j, 2+0.1*float64(s))
		if s%3 == 0 {
			b.SetEdge(2, 9, 0.5*float64(s%2)) // toggle a weak chord
		}
		cur = b.MustBuild()
		gs = append(gs, cur)
	}
	return graph.MustSequence(gs)
}

// TestIncrementalStreamMatchesWarmStream runs the same small-edit
// sequence through two streams over HTTP — one with
// incremental_updates on, one plain shared-projections — and checks
// that the served reports agree at solver tolerance while the build
// counters prove the incremental path actually engaged. Runs under
// -race in CI, exercising the locking around the new stats fields.
func TestIncrementalStreamMatchesWarmStream(t *testing.T) {
	srv, cl := newTestServer(t, Config{})
	ctx := context.Background()
	seq := smallEditSequence(t, 8)

	warmCfg := StreamConfig{L: 3, K: 24, Seed: 7, ExactCutoff: 1, SharedProjections: true}
	incCfg := warmCfg
	incCfg.IncrementalUpdates = true
	if err := cl.CreateStream(ctx, "warm", warmCfg); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateStream(ctx, "inc", incCfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "warm", seq.At(i), true); err != nil {
			t.Fatalf("warm push %d: %v", i, err)
		}
		if _, err := cl.Push(ctx, "inc", seq.At(i), true); err != nil {
			t.Fatalf("inc push %d: %v", i, err)
		}
	}

	warmRep, err := cl.Report(ctx, "warm")
	if err != nil {
		t.Fatal(err)
	}
	incRep, err := cl.Report(ctx, "inc")
	if err != nil {
		t.Fatal(err)
	}
	if len(incRep.Transitions) != len(warmRep.Transitions) {
		t.Fatalf("transition counts differ: %d vs %d", len(incRep.Transitions), len(warmRep.Transitions))
	}
	scale := seq.At(0).Volume()
	for i := range warmRep.Transitions {
		it, wt := incRep.Transitions[i], warmRep.Transitions[i]
		if !reflect.DeepEqual(it.Nodes, wt.Nodes) {
			t.Fatalf("transition %d nodes differ: %v vs %v", i, it.Nodes, wt.Nodes)
		}
		if len(it.Edges) != len(wt.Edges) {
			t.Fatalf("transition %d edge counts differ: %d vs %d", i, len(it.Edges), len(wt.Edges))
		}
		byEdge := make(map[[2]int]float64, len(it.Edges))
		for _, e := range it.Edges {
			byEdge[[2]int{e.I, e.J}] = e.Score
		}
		for _, e := range wt.Edges {
			got, ok := byEdge[[2]int{e.I, e.J}]
			if !ok {
				t.Fatalf("transition %d: edge (%d,%d) anomalous on warm but not incremental", i, e.I, e.J)
			}
			if math.Abs(got-e.Score) > 1e-5*scale {
				t.Fatalf("transition %d edge (%d,%d): incremental %g, warm %g", i, e.I, e.J, got, e.Score)
			}
		}
	}

	// The incremental stream's build-mode split: one cold first build,
	// at least one Woodbury-corrected build, and zero incremental builds
	// on the stream that did not opt in.
	if c := srv.metrics.counterValue("cadd_oracle_builds_total", labels("stream", "inc", "mode", "cold")); c != 1 {
		t.Errorf("inc cold builds = %g, want 1", c)
	}
	if n := srv.metrics.counterValue("cadd_oracle_builds_total", labels("stream", "inc", "mode", "incremental")); n == 0 {
		t.Error("no incremental builds counted for the opted-in stream")
	}
	if n := srv.metrics.counterValue("cadd_oracle_builds_total", labels("stream", "warm", "mode", "incremental")); n != 0 {
		t.Errorf("warm stream counted %g incremental builds, want 0", n)
	}
}

// TestIncrementalSolverTolThreadsThrough pins the solver_tol knob's
// path into the detector configuration: the wire field must land in
// the commute solver options (a loose serving tolerance is what buys
// the incremental certificate its verification-skip headroom), and the
// zero value must keep the solver default.
func TestIncrementalSolverTolThreadsThrough(t *testing.T) {
	cc, err := StreamConfig{SolverTol: 1e-5}.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.Commute.Solver.Tolerance(); got != 1e-5 {
		t.Fatalf("solver_tol 1e-5 became tolerance %g", got)
	}
	cc, err = StreamConfig{}.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.Commute.Solver.Tolerance(); got != 1e-8 {
		t.Fatalf("unset solver_tol became tolerance %g, want the 1e-8 default", got)
	}
}
