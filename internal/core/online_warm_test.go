package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
)

// sharedCfg forces the embedding oracle (ExactCutoff: 1) with shared
// projection streams, so consecutive pushes can warm-start.
func sharedCfg() Config {
	return Config{
		Commute:     commute.Config{K: 24, Seed: 7, SharedProjections: true},
		ExactCutoff: 1,
	}
}

// Streaming an unchanged graph must make every rebuild free: the warm
// embedding is bit-identical, so zero PCG iterations and zero scores.
func TestOnlineWarmUnchangedGraphIsFree(t *testing.T) {
	seq := multiTransitionSequence(t)
	g := seq.At(0)
	o := NewOnline(sharedCfg(), 2)
	for push := 0; push < 4; push++ {
		rep, err := o.Push(g)
		if err != nil {
			t.Fatal(err)
		}
		st := o.LastOracleStats()
		if !st.Built || st.Kind != "embedding" {
			t.Fatalf("push %d: oracle stats %+v, want a built embedding", push, st)
		}
		if push == 0 {
			if st.Warm {
				t.Fatal("first build cannot be warm")
			}
			continue
		}
		if !st.Warm || !st.PrecondReused {
			t.Fatalf("push %d: unchanged-graph rebuild not warm: %+v", push, st)
		}
		if st.PCGIterations != 0 {
			t.Fatalf("push %d: unchanged-graph rebuild used %d PCG iterations, want 0", push, st.PCGIterations)
		}
		if len(rep.Edges) != 0 {
			t.Fatalf("push %d: identical graphs scored %d anomalous edges", push, len(rep.Edges))
		}
	}
}

// With SharedProjections, the streaming detector and the batch detector
// score the same projected systems, so across small edits the warm
// incremental path must reproduce the batch anomaly sets (agreement
// within solver tolerance; the planted bridge has a wide margin).
func TestOnlineWarmMatchesBatchSharedProjections(t *testing.T) {
	seq := multiTransitionSequence(t)
	l := 3.0
	cfg := sharedCfg()

	o := NewOnline(cfg, l)
	warmPushes := 0
	for tt := 0; tt < seq.T(); tt++ {
		if _, err := o.Push(seq.At(tt)); err != nil {
			t.Fatal(err)
		}
		if st := o.LastOracleStats(); st.Warm {
			warmPushes++
		}
	}
	if warmPushes == 0 {
		t.Fatal("no push took the warm path across the stream")
	}

	batchTrs, err := New(cfg).Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	batch := Threshold(batchTrs, SelectDelta(batchTrs, l))
	online := o.Report()

	if len(batch.Transitions) != len(online.Transitions) {
		t.Fatalf("transition counts differ: %d vs %d", len(batch.Transitions), len(online.Transitions))
	}
	for i := range batch.Transitions {
		if !reflect.DeepEqual(batch.Transitions[i].Nodes, online.Transitions[i].Nodes) {
			t.Fatalf("transition %d nodes differ: %v vs %v",
				i, batch.Transitions[i].Nodes, online.Transitions[i].Nodes)
		}
	}

	// Scores agree within solver tolerance on every transition.
	onTrs := o.Transitions()
	scale := seq.At(0).Volume()
	for i := range batchTrs {
		bs, os := batchTrs[i].Scores, onTrs[i].Scores
		if len(bs) != len(os) {
			t.Fatalf("transition %d: score supports differ: %d vs %d", i, len(bs), len(os))
		}
		for p := range bs {
			if bs[p].I != os[p].I || bs[p].J != os[p].J {
				t.Fatalf("transition %d: score order differs at %d", i, p)
			}
			if math.Abs(bs[p].Score-os[p].Score) > 1e-5*scale {
				t.Fatalf("transition %d edge (%d,%d): batch %g, online %g",
					i, bs[p].I, bs[p].J, bs[p].Score, os[p].Score)
			}
		}
	}
}

// Without SharedProjections every push must stay on the cold path —
// per-instance independent projections cannot be warm-started.
func TestOnlineDefaultConfigStaysCold(t *testing.T) {
	seq := multiTransitionSequence(t)
	o := NewOnline(Config{Commute: commute.Config{K: 8, Seed: 7}, ExactCutoff: 1}, 2)
	for tt := 0; tt < seq.T(); tt++ {
		if _, err := o.Push(seq.At(tt)); err != nil {
			t.Fatal(err)
		}
		if st := o.LastOracleStats(); st.Warm {
			t.Fatalf("push %d took the warm path without SharedProjections", tt)
		}
	}
}

// The cold-baseline estimate must track real cold costs: on cold builds
// it equals the measured iterations, on warm builds it extrapolates
// from the last cold build's per-row cost. And every built oracle names
// its mode — cold, warm, exact, and a restored detector's first build
// (TestOnlineIncrementalMatchesWarmReport pins incremental) — while a
// restored detector reports nothing built until it builds.
func TestOnlineOracleStatsColdEstimate(t *testing.T) {
	seq := multiTransitionSequence(t)
	o := NewOnline(sharedCfg(), 2)
	if _, err := o.Push(seq.At(0)); err != nil {
		t.Fatal(err)
	}
	cold := o.LastOracleStats()
	if cold.Warm || cold.ColdEstimateIterations != cold.PCGIterations {
		t.Fatalf("cold build stats inconsistent: %+v", cold)
	}
	if cold.PCGIterations == 0 {
		t.Fatal("cold embedding build reported zero PCG iterations")
	}
	if _, err := o.Push(seq.At(1)); err != nil {
		t.Fatal(err)
	}
	warm := o.LastOracleStats()
	if !warm.Warm {
		t.Fatalf("second push not warm: %+v", warm)
	}
	if warm.ColdEstimateIterations != cold.PCGIterations {
		t.Fatalf("warm cold-estimate %d, want the cold build's %d (same k, same n)",
			warm.ColdEstimateIterations, cold.PCGIterations)
	}
	if warm.PCGIterations >= warm.ColdEstimateIterations {
		t.Errorf("warm build used %d iterations vs estimated cold %d — no saving on a small edit",
			warm.PCGIterations, warm.ColdEstimateIterations)
	}
	if cold.Mode != "cold" || warm.Mode != "warm" {
		t.Fatalf("build modes %q, %q, want cold, warm", cold.Mode, warm.Mode)
	}

	exact := NewOnline(Config{}, 2) // n=10 is below the exact cutoff
	if _, err := exact.Push(seq.At(0)); err != nil {
		t.Fatal(err)
	}
	if st := exact.LastOracleStats(); !st.Built || st.Mode != "exact" {
		t.Fatalf("exact build stats %+v, want mode exact", st)
	}

	// The restored detector rebuilds the previous oracle cold, then
	// warm-starts the new instance's build from it.
	restored, err := RestoreOnline(sharedCfg(), 2, o.State())
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.LastOracleStats(); st.Built {
		t.Fatalf("restored detector reports a build before its first push: %+v", st)
	}
	if _, err := restored.Push(seq.At(2)); err != nil {
		t.Fatal(err)
	}
	if st := restored.LastOracleStats(); !st.Built || st.Mode != "warm" {
		t.Fatalf("restored detector's first build stats %+v, want mode warm", st)
	}
}

// selectDeltaReference is the pre-optimization 200-step bisection,
// kept verbatim as the behavioural reference for SelectDelta.
func selectDeltaReference(transitions []Transition, l float64) float64 {
	target := int(l * float64(len(transitions)))
	if target <= 0 {
		var hi float64
		for _, tr := range transitions {
			if tr.Total > hi {
				hi = tr.Total
			}
		}
		return hi + 1
	}
	if totalNodesAt(transitions, 0) < target {
		return 0
	}
	var hi float64
	for _, tr := range transitions {
		if tr.Total > hi {
			hi = tr.Total
		}
	}
	lo := 0.0
	for iter := 0; iter < 200 && hi-lo > 1e-12*(1+hi); iter++ {
		mid := lo + (hi-lo)/2
		if totalNodesAt(transitions, mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// randomTransitions builds transitions with random sparse supports and
// descending scores, the shape SelectDelta consumes.
func randomTransitions(rng *rand.Rand, count, n int) []Transition {
	trs := make([]Transition, count)
	for t := range trs {
		m := rng.Intn(25)
		scores := make([]EdgeScore, 0, m)
		for e := 0; e < m; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			scores = append(scores, EdgeScore{I: i, J: j, Score: rng.ExpFloat64()})
		}
		sort.Slice(scores, func(a, b int) bool { return scores[a].Score > scores[b].Score })
		trs[t] = Transition{T: t, Scores: scores, Total: TotalScore(scores)}
	}
	return trs
}

// The exact breakpoint search must agree with the old bisection: the
// same node totals, and a δ within the bisection's own convergence
// tolerance. (The exact search can only move δ up to the true supremum
// the bisection approached from below.)
func TestQuickSelectDeltaMatchesBisectionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		trs := randomTransitions(rng, 1+rng.Intn(8), 40)
		l := []float64{0, 0.5, 1, 2, 3, 7}[rng.Intn(6)]
		got := SelectDelta(trs, l)
		want := selectDeltaReference(trs, l)
		if na, nb := totalNodesAt(trs, got), totalNodesAt(trs, want); na != nb {
			t.Fatalf("trial %d (l=%g): node totals differ: exact δ=%g → %d, bisection δ=%g → %d",
				trial, l, got, na, want, nb)
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d (l=%g): δ diverged: exact %g, bisection %g", trial, l, got, want)
		}
	}
}

// driftingGraphs returns count instances of an n-cycle with chords,
// each reweighting one to three random pairs of its predecessor.
func driftingGraphs(rng *rand.Rand, n, count int) []*graph.Graph {
	base := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		base.SetEdge(i, (i+1)%n, 1)
		base.SetEdge(i, (i+7)%n, 0.5)
	}
	out := []*graph.Graph{base.MustBuild()}
	for len(out) < count {
		b := graph.NewBuilder(n)
		for _, e := range out[len(out)-1].Edges() {
			b.SetEdge(e.I, e.J, e.W)
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				b.SetEdge(i, j, rng.Float64()*2)
			}
		}
		out = append(out, b.MustBuild())
	}
	return out
}

// The δ cache maintained across pushes must stay consistent with a
// from-scratch SelectDelta over the retained history, including across
// window evictions.
func TestOnlineCachedDeltaMatchesBatchSelection(t *testing.T) {
	o := NewOnline(Config{Variant: VariantADJ}, 1.5)
	o.SetMaxHistory(4)
	for push, g := range driftingGraphs(rand.New(rand.NewSource(59)), 30, 12) {
		if _, err := o.Push(g); err != nil {
			t.Fatal(err)
		}
		if len(o.Transitions()) > 0 {
			if want := SelectDelta(o.Transitions(), 1.5); o.Delta() != want {
				t.Fatalf("push %d: cached δ %g, from-scratch δ %g", push, o.Delta(), want)
			}
		}
	}
}

// Report and TransitionReport read the cached step functions; both must
// equal re-thresholding the retained scores with Threshold (nil edge
// sets included), for every retained transition after evictions, and
// TransitionReport must refuse indices outside the window.
func TestOnlineTransitionReportMatchesReport(t *testing.T) {
	o := NewOnline(Config{Variant: VariantADJ}, 1.5)
	o.SetMaxHistory(5)
	for push, g := range driftingGraphs(rand.New(rand.NewSource(79)), 30, 14) {
		if _, err := o.Push(g); err != nil {
			t.Fatal(err)
		}
		rep := o.Report()
		if want := Threshold(o.Transitions(), o.Delta()); !reflect.DeepEqual(rep, want) {
			t.Fatalf("push %d: Report differs from Threshold over the window", push)
		}
		for _, tr := range rep.Transitions {
			got, ok := o.TransitionReport(tr.T)
			if !ok || !reflect.DeepEqual(got, tr) {
				t.Fatalf("push %d: TransitionReport(%d) = %+v, %v; Report holds %+v", push, tr.T, got, ok, tr)
			}
		}
		for _, tt := range []int{-1, o.Evicted() - 1, o.Evicted() + len(rep.Transitions)} {
			if _, ok := o.TransitionReport(tt); ok {
				t.Fatalf("push %d: TransitionReport(%d) outside window [%d, %d) reported ok",
					push, tt, o.Evicted(), o.Evicted()+len(rep.Transitions))
			}
		}
	}
	if o.Evicted() == 0 {
		t.Fatal("stream never evicted; the window checks ran on a full history only")
	}
}
