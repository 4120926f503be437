package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dyngraph/internal/commute"
	"dyngraph/internal/graph"
)

// oracleRegimes are the embedding regimes whose previous oracle a
// restore reinstates (ExactCutoff 1 keeps every instance out of the
// exact regime).
var oracleRegimes = []struct {
	name string
	cfg  Config
}{
	{"per_instance", Config{ExactCutoff: 1, Commute: commute.Config{K: 8, Seed: 7}}},
	{"shared", Config{ExactCutoff: 1, Commute: commute.Config{K: 8, Seed: 7, SharedProjections: true}}},
	{"shared_incremental", Config{ExactCutoff: 1, Commute: commute.Config{K: 8, Seed: 7,
		SharedProjections: true, IncrementalUpdates: true}}},
}

// reweightStream is a sparse (average degree below 4), fixed-support
// sequence of reweights: a ring with chords, one edge reweighted on even
// steps (the Woodbury path at K=8) and every edge on odd ones (the warm
// path).
func reweightStream(n, T int, seed int64) *graph.Sequence {
	rng := rand.New(rand.NewSource(seed))
	var keys [][2]int
	for i := 0; i < n; i++ {
		keys = append(keys, [2]int{i, (i + 1) % n})
	}
	for i := 0; i < n/2; i += 3 {
		keys = append(keys, [2]int{i, i + n/2})
	}
	w := make([]float64, len(keys))
	for e := range w {
		w[e] = 1 + rng.Float64()
	}
	gs := make([]*graph.Graph, T)
	for t := range gs {
		switch {
		case t == 0:
		case t%2 == 1:
			for e := range w {
				w[e] = 1 + rng.Float64()
			}
		default:
			w[rng.Intn(len(w))] = 1 + 4*rng.Float64()
		}
		b := graph.NewBuilder(n)
		for e, k := range keys {
			b.SetEdge(k[0], k[1], w[e])
		}
		gs[t] = b.MustBuild()
	}
	return graph.MustSequence(gs)
}

// TestRestoreOnlineOracleBitIdentical: a detector restored with its
// previous oracle builds one oracle on the next push and continues
// bit-identically in every embedding regime. Without the oracle it
// reports the pending rebuild and performs it.
func TestRestoreOnlineOracleBitIdentical(t *testing.T) {
	seq := reweightStream(48, 12, 3)
	const l, split = 2.0, 6
	for _, rg := range oracleRegimes {
		t.Run(rg.name, func(t *testing.T) {
			orig := NewOnline(rg.cfg, l)
			for tt := 0; tt < split; tt++ {
				if _, err := orig.Push(seq.At(tt)); err != nil {
					t.Fatal(err)
				}
			}
			st := orig.State()
			if st.Oracle == nil {
				t.Fatal("state carries no oracle")
			}
			restored, err := RestoreOnline(rg.cfg, l, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.RestoredOracle(); got != "restored" {
				t.Fatalf("RestoredOracle() = %q, want restored", got)
			}
			for tt := split; tt < seq.T(); tt++ {
				repO, err := orig.Push(seq.At(tt))
				if err != nil {
					t.Fatal(err)
				}
				repR, err := restored.Push(seq.At(tt))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(repO, repR) {
					t.Fatalf("push %d: reports diverge", tt)
				}
				so, sr := orig.LastOracleStats(), restored.LastOracleStats()
				if sr.RebuiltPrev || so.Mode != sr.Mode || so.PCGIterations != sr.PCGIterations {
					t.Fatalf("push %d: oracle stats %+v, restored %+v", tt, so, sr)
				}
			}
			if !reflect.DeepEqual(orig.Report(), restored.Report()) {
				t.Fatal("full reports diverge")
			}

			st.Oracle = nil
			rebuilt, err := RestoreOnline(rg.cfg, l, st)
			if err != nil {
				t.Fatal(err)
			}
			if got := rebuilt.RestoredOracle(); got != "rebuild" {
				t.Fatalf("RestoredOracle() without the block = %q, want rebuild", got)
			}
			if _, err := rebuilt.Push(seq.At(split)); err != nil {
				t.Fatal(err)
			}
			if !rebuilt.LastOracleStats().RebuiltPrev {
				t.Fatal("push after a restore without the oracle did not report the rebuild")
			}
		})
	}
}

// TestRestoreOnlineRejectsMalformedOracle: the oracle block must fit
// the previous graph and the stream's configuration.
func TestRestoreOnlineRejectsMalformedOracle(t *testing.T) {
	seq := reweightStream(48, 4, 5)
	cfg := oracleRegimes[2].cfg
	o := NewOnline(cfg, 2)
	for tt := 0; tt < seq.T(); tt++ {
		if _, err := o.Push(seq.At(tt)); err != nil {
			t.Fatal(err)
		}
	}
	st := o.State()
	bad := *st.Oracle
	bad.Z = bad.Z[:len(bad.Z)-8]
	st.Oracle = &bad
	if _, err := RestoreOnline(cfg, 2, st); err == nil || !strings.Contains(err.Error(), "oracle of instance") {
		t.Fatalf("short z: err = %v", err)
	}
	st = o.State()
	adj := cfg
	adj.Variant = VariantADJ
	if _, err := RestoreOnline(adj, 2, st); err == nil || !strings.Contains(err.Error(), "build no embedding") {
		t.Fatalf("oracle on an ADJ stream: err = %v", err)
	}
}
