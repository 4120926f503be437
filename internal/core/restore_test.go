package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
)

// restorePoint pushes the first `split` instances of seq into a fresh
// detector and returns it.
func restorePoint(t *testing.T, seq *graph.Sequence, l float64, split, maxHistory int) *OnlineDetector {
	t.Helper()
	o := NewOnline(Config{}, l)
	o.SetMaxHistory(maxHistory)
	for tt := 0; tt < split; tt++ {
		if _, err := o.Push(seq.At(tt)); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func TestRestoreOnlineRoundTrip(t *testing.T) {
	// Capture State() mid-stream, restore into a fresh detector, and
	// stream the remainder through both. The original and the restored
	// detector must agree exactly — same δ, same eviction count, same
	// report — at every subsequent push.
	seq := multiTransitionSequence(t)
	l := 3.0
	for split := 1; split < seq.T(); split++ {
		orig := restorePoint(t, seq, l, split, 0)
		restored, err := RestoreOnline(Config{}, l, orig.State())
		if err != nil {
			t.Fatalf("split %d: RestoreOnline: %v", split, err)
		}
		for tt := split; tt < seq.T(); tt++ {
			repO, err := orig.Push(seq.At(tt))
			if err != nil {
				t.Fatal(err)
			}
			repR, err := restored.Push(seq.At(tt))
			if err != nil {
				t.Fatalf("split %d: restored push %d: %v", split, tt, err)
			}
			if !reflect.DeepEqual(repO, repR) {
				t.Fatalf("split %d push %d: per-push reports diverge:\n%+v\n%+v", split, tt, repO, repR)
			}
		}
		if orig.Delta() != restored.Delta() || orig.Evicted() != restored.Evicted() {
			t.Fatalf("split %d: δ/evicted diverge: (%g,%d) vs (%g,%d)",
				split, orig.Delta(), orig.Evicted(), restored.Delta(), restored.Evicted())
		}
		if !reflect.DeepEqual(orig.Report(), restored.Report()) {
			t.Fatalf("split %d: full reports diverge", split)
		}
	}
}

func TestRestoreOnlineRoundTripWithEviction(t *testing.T) {
	// Same round trip, but through a bounded history window, restoring
	// at a point where transitions have already been evicted.
	seq := multiTransitionSequence(t)
	l, window := 3.0, 2
	orig := restorePoint(t, seq, l, seq.T(), window)
	if orig.Evicted() == 0 {
		t.Fatal("test premise broken: no evictions before the restore point")
	}
	restored, err := RestoreOnline(Config{}, l, orig.State())
	if err != nil {
		t.Fatal(err)
	}
	restored.SetMaxHistory(window)
	// One more instance past the restore point, evicting again.
	next := seq.At(1)
	if _, err := orig.Push(next); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Push(next); err != nil {
		t.Fatal(err)
	}
	if orig.Evicted() != restored.Evicted() {
		t.Fatalf("eviction counts diverge: %d vs %d", orig.Evicted(), restored.Evicted())
	}
	if !reflect.DeepEqual(orig.Report(), restored.Report()) {
		t.Fatal("reports diverge after post-restore eviction")
	}
}

func TestRestoreOnlineEmptyState(t *testing.T) {
	o, err := RestoreOnline(Config{}, 2, OnlineState{})
	if err != nil {
		t.Fatal(err)
	}
	seq := multiTransitionSequence(t)
	if _, err := o.Push(seq.At(0)); err != nil {
		t.Fatalf("restored empty detector rejects first push: %v", err)
	}
}

func TestRestoreOnlineRejectsInconsistentState(t *testing.T) {
	seq := multiTransitionSequence(t)
	base := restorePoint(t, seq, 3, 3, 0).State()

	cases := []struct {
		name   string
		mutate func(st *OnlineState)
		want   string
	}{
		{"negative instances", func(st *OnlineState) { st.T = -1 }, "negative"},
		{"missing prev graph", func(st *OnlineState) { st.Prev = nil }, "no previous graph"},
		{"vertex count mismatch", func(st *OnlineState) { st.N = 7 }, "vertices"},
		{"too much history", func(st *OnlineState) {
			st.History = append(append([]Transition(nil), st.History...), st.History...)
		}, "exceed"},
		{"eviction miscount", func(st *OnlineState) { st.Evicted = 1 }, "eviction count"},
		{"non-contiguous window", func(st *OnlineState) {
			st.History = append([]Transition(nil), st.History...)
			st.History[1].T = 5
		}, "window position"},
		{"tampered delta", func(st *OnlineState) { st.Delta *= 2 }, "does not match"},
		{"nonempty zero-instance state", func(st *OnlineState) { st.T = 0; st.Prev = nil }, "zero instances"},
		{"negative score index", badScore(func(sc *EdgeScore) { sc.I = -1 }), "invalid score"},
		{"huge score index", badScore(func(sc *EdgeScore) { sc.J = 1 << 40 }), "invalid score"},
		{"score pair beyond the vertex count", badScore(func(sc *EdgeScore) { sc.J = base.N }), "invalid score"},
		{"unordered score pair", badScore(func(sc *EdgeScore) { sc.I, sc.J = sc.J, sc.I }), "invalid score"},
		{"self-pair score", badScore(func(sc *EdgeScore) { sc.J = sc.I }), "invalid score"},
		{"NaN score", badScore(func(sc *EdgeScore) { sc.Score = math.NaN() }), "invalid score"},
		{"infinite score", badScore(func(sc *EdgeScore) { sc.Score = math.Inf(1) }), "invalid score"},
		{"zero score", badScore(func(sc *EdgeScore) { sc.Score = 0 }), "invalid score"},
		{"negative score", badScore(func(sc *EdgeScore) { sc.Score = -1 }), "invalid score"},
		{"oracle state with zero instances", func(st *OnlineState) {
			st.T, st.Prev, st.History, st.Oracle = 0, nil, nil, &commute.State{}
		}, "zero instances"},
		{"oracle state on an exact stream", func(st *OnlineState) {
			st.Oracle = &commute.State{Z: make([]float64, 50*st.N)}
		}, "build no embedding"},
	}
	if len(base.History) == 0 || len(base.History[0].Scores) == 0 {
		t.Fatal("test premise broken: no scores to corrupt")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base
			st.History = append([]Transition(nil), base.History...)
			tc.mutate(&st)
			_, err := RestoreOnline(Config{}, 3, st)
			if err == nil {
				t.Fatal("inconsistent state accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if tc.want == "invalid score" && !errors.Is(err, ErrInvalidScore) {
				t.Fatalf("error %q is not ErrInvalidScore", err)
			}
		})
	}
}

// badScore corrupts the first score of the oldest retained transition
// (on a copy: score slices are shared with the detector).
func badScore(f func(sc *EdgeScore)) func(st *OnlineState) {
	return func(st *OnlineState) {
		sc := append([]EdgeScore(nil), st.History[0].Scores...)
		f(&sc[0])
		st.History[0].Scores = sc
	}
}

func TestOnlineEvictionMatchesBatchOnRetainedWindow(t *testing.T) {
	// The eviction audit: a windowed streaming detector must be
	// indistinguishable from a batch run over just the retained suffix
	// of the sequence — same scores, and a δ selected over exactly that
	// window. Exercises the front-drop compaction and the δ-breakpoint
	// cache invalidation it triggers.
	seq := multiTransitionSequence(t)
	l, window := 3.0, 2
	o := NewOnline(Config{}, l)
	o.SetMaxHistory(window)
	for tt := 0; tt < seq.T(); tt++ {
		if _, err := o.Push(seq.At(tt)); err != nil {
			t.Fatal(err)
		}
		if tt == 0 {
			continue
		}
		// The δ cache must track eviction: after every push the cached
		// threshold equals a from-scratch selection over the window.
		if want := SelectDelta(o.Transitions(), l); o.Delta() != want {
			t.Fatalf("after push %d: cached δ %g, recomputed %g", tt, o.Delta(), want)
		}
	}

	trs := o.Transitions()
	first := trs[0].T // window start as a transition index
	if o.Evicted() != first {
		t.Fatalf("Evicted() = %d, window starts at transition %d", o.Evicted(), first)
	}
	// Batch over the graph suffix that generates the retained window:
	// transition first maps the move from instance first to first+1.
	var graphs []*graph.Graph
	for tt := first; tt < seq.T(); tt++ {
		graphs = append(graphs, seq.At(tt))
	}
	batchTrs, err := New(Config{}).Run(graph.MustSequence(graphs))
	if err != nil {
		t.Fatal(err)
	}
	if len(batchTrs) != len(trs) {
		t.Fatalf("batch over suffix has %d transitions, window has %d", len(batchTrs), len(trs))
	}
	for i := range trs {
		if !reflect.DeepEqual(trs[i].Scores, batchTrs[i].Scores) || trs[i].Total != batchTrs[i].Total {
			t.Fatalf("window transition %d scores differ from batch over the retained suffix", trs[i].T)
		}
	}
	if want := SelectDelta(batchTrs, l); o.Delta() != want {
		t.Fatalf("windowed δ %g, batch-over-suffix δ %g", o.Delta(), want)
	}
}
