package commute

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
)

// stateRegimes are the embedding regimes whose state a stream snapshot
// carries: per-instance projections (z only), shared projections (z
// and the solver's forest) and shared + incremental (z, the retained
// right-hand sides and their certificates, and the forest).
var stateRegimes = []struct {
	name string
	cfg  Config
}{
	{"per_instance", Config{K: 8, Seed: 3}},
	{"shared", Config{K: 8, Seed: 3, SharedProjections: true}},
	{"shared_incremental", Config{K: 8, Seed: 3, SharedProjections: true, IncrementalUpdates: true}},
}

// copyState deep-copies st, so a restore cannot lean on aliasing the
// original embedding's storage.
func copyState(st State) State {
	cp := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		return append([]float64(nil), v...)
	}
	out := State{Z: cp(st.Z), Y: cp(st.Y), ResBound: cp(st.ResBound), NormB: cp(st.NormB)}
	if st.Forest != nil {
		out.Forest = &solver.Forest{
			Parent: append([]int32(nil), st.Forest.Parent...),
			Order:  append([]int32(nil), st.Forest.Order...),
		}
	}
	return out
}

// sameBits fails unless a and b hold bit-identical coordinates.
func sameBits(t *testing.T, a, b *Embedding, what string) {
	t.Helper()
	if len(a.z) != len(b.z) {
		t.Fatalf("%s: z lengths %d vs %d", what, len(a.z), len(b.z))
	}
	for i := range a.z {
		if math.Float64bits(a.z[i]) != math.Float64bits(b.z[i]) {
			t.Fatalf("%s: z[%d] = %g vs %g", what, i, a.z[i], b.z[i])
		}
	}
}

// TestRestoreContinuesBitIdentically: an embedding restored from its
// State answers distances and seeds the next builds exactly as the
// original does, in every regime — including a reweight-only stream
// whose patched forest Kruskal would not pick again.
func TestRestoreContinuesBitIdentically(t *testing.T) {
	for _, rg := range stateRegimes {
		t.Run(rg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			g := randomConnected(rng, 60)
			emb, err := NewEmbedding(g, nil, rg.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Alternate one-edge reweights (the Woodbury path) with
			// reweights of every edge (the warm path).
			step := func(g *graph.Graph, i int) *graph.Graph {
				if i%2 == 0 {
					return reweightSome(rng, g, 1)
				}
				return reweightSome(rng, g, g.NumEdges())
			}
			for i := 0; i < 5; i++ {
				g = step(g, i)
				if emb, err = NewEmbedding(g, emb, rg.cfg, nil); err != nil {
					t.Fatal(err)
				}
			}
			st := emb.State()
			if got := st.Forest != nil; got != rg.cfg.SharedProjections {
				t.Fatalf("state carries a forest = %v", got)
			}
			if got := st.Y != nil; got != rg.cfg.retainRHS() {
				t.Fatalf("state carries y = %v", got)
			}
			if st.Forest != nil {
				fresh := solver.New(g, rg.cfg.Solver, solver.Build{}).Forest()
				if slices.Equal(st.Forest.Parent, fresh.Parent) && slices.Equal(st.Forest.Order, fresh.Order) {
					t.Fatal("patched forest equals a fresh Kruskal forest; the test would be vacuous")
				}
			}
			restored, err := Restore(g, copyState(st), rg.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 200; trial++ {
				i, j := rng.Intn(g.N()), rng.Intn(g.N())
				if a, b := emb.Distance(i, j), restored.Distance(i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("distance(%d,%d) = %g, restored %g", i, j, a, b)
				}
			}
			a, b := emb, restored
			modes := map[string]bool{}
			for i := 5; i < 9; i++ {
				g = step(g, i)
				if a, err = NewEmbedding(g, a, rg.cfg, nil); err != nil {
					t.Fatal(err)
				}
				if b, err = NewEmbedding(g, b, rg.cfg, nil); err != nil {
					t.Fatal(err)
				}
				if a.Stats() != b.Stats() {
					t.Fatalf("build %d: stats %+v, from restored %+v", i, a.Stats(), b.Stats())
				}
				sameBits(t, a, b, "build after restore")
				modes[a.Stats().Mode] = true
			}
			if rg.cfg.IncrementalUpdates && !modes["incremental"] {
				t.Fatalf("no build after the restore took the incremental path (modes %v)", modes)
			}
		})
	}
}

// TestRestoreRejectsMalformedState: the state comes from disk or a
// replica, so a block that does not fit the graph and configuration is
// refused with an error.
func TestRestoreRejectsMalformedState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 40)
	inc := stateRegimes[2].cfg
	emb, err := NewEmbedding(g, nil, inc, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := emb.State()

	cases := []struct {
		name   string
		cfg    Config
		mutate func(st *State)
		want   string
	}{
		{"short z", inc, func(st *State) { st.Z = st.Z[:len(st.Z)-1] }, "z has"},
		{"missing y", inc, func(st *State) { st.Y = nil }, "right-hand-side"},
		{"y on a non-incremental stream", stateRegimes[1].cfg, func(st *State) {}, "right-hand-side"},
		{"short certificates", inc, func(st *State) { st.NormB = st.NormB[:1] }, "resBound/normB"},
		{"NaN in z", inc, func(st *State) { st.Z[3] = math.NaN() }, "non-finite"},
		{"Inf in normB", inc, func(st *State) { st.NormB[0] = math.Inf(1) }, "non-finite"},
		{"missing forest", inc, func(st *State) { st.Forest = nil }, "forest"},
		{"corrupt forest", inc, func(st *State) { st.Forest.Order[0] = -5 }, "permutation"},
		{"forest on a per-instance stream", Config{K: 8, Seed: 3}, func(st *State) { st.Y, st.ResBound, st.NormB = nil, nil, nil }, "per-instance"},
		{"other k", Config{K: 4, Seed: 3, SharedProjections: true, IncrementalUpdates: true}, func(st *State) {}, "z has"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := copyState(base)
			tc.mutate(&st)
			_, err := Restore(g, st, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
