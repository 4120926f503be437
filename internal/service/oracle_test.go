package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
	"dyngraph/internal/solver"
	"dyngraph/internal/wal"
)

// oracleRegimes are the embedding regimes whose previous oracle a
// stream snapshot carries. exact_cutoff 1 keeps every instance out of
// the exact regime.
var oracleRegimes = []struct {
	name string
	cfg  StreamConfig
}{
	{"per_instance", StreamConfig{L: 2, K: 8, Seed: 7, ExactCutoff: 1}},
	{"shared", StreamConfig{L: 2, K: 8, Seed: 7, ExactCutoff: 1, SharedProjections: true}},
	{"shared_incremental", StreamConfig{L: 2, K: 8, Seed: 7, ExactCutoff: 1,
		SharedProjections: true, IncrementalUpdates: true}},
}

// reweightStream is a sparse (average degree below 4, so the solver
// picks the tree preconditioner), fixed-support sequence of reweights:
// a ring with chords, one edge reweighted on even steps (the Woodbury
// path at k=8) and every edge on odd ones (the warm path). A
// shared-projection stream keeps patching its first spanning forest
// across it, which Kruskal would not pick for the later graphs.
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

// uninterrupted pushes the first upto instances of seq through one
// core.OnlineDetector configured as the stream would be.
func uninterrupted(t testing.TB, cfg StreamConfig, seq *graph.Sequence, upto int) *core.OnlineDetector {
	t.Helper()
	cfg = cfg.withDefaults(1, 0)
	ccfg, err := cfg.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	det := core.NewOnline(ccfg, cfg.L)
	det.SetMaxHistory(cfg.MaxHistory)
	for i := 0; i < upto; i++ {
		if _, err := det.Push(seq.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	return det
}

// uninterruptedReport is the /report an uninterrupted detector serves
// after upto instances.
func uninterruptedReport(t *testing.T, cfg StreamConfig, seq *graph.Sequence, upto int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteReportJSON(&buf, uninterrupted(t, cfg, seq, upto).Report()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requirePatchedForest fails unless a shared-projection stream's
// forest after upto instances differs from a fresh Kruskal forest of
// the same graph, so the byte-identity checks exercise the forest carry.
// Per-instance streams must carry no forest.
func requirePatchedForest(t *testing.T, cfg StreamConfig, seq *graph.Sequence, upto int) {
	t.Helper()
	st := uninterrupted(t, cfg, seq, upto).State()
	if st.Oracle == nil {
		t.Fatal("detector state carries no oracle")
	}
	if !cfg.SharedProjections {
		if st.Oracle.Forest != nil {
			t.Fatal("per-instance state carries a forest")
		}
		return
	}
	fresh := solver.New(st.Prev, solver.Options{Tol: cfg.SolverTol}, solver.Build{}).Forest()
	if fresh == nil || reflect.DeepEqual(st.Oracle.Forest, fresh) {
		t.Fatalf("after %d instances the patched forest equals a fresh Kruskal forest; the test would be vacuous", upto)
	}
}

// oracleRebuilds reads cadd_oracle_rebuilds_total for one stream.
func oracleRebuilds(srv *Server, id string) float64 {
	return srv.metrics.counterValue("cadd_oracle_rebuilds_total", labels("stream", id))
}

// restoreOracleTag returns the oracle attribute of the restore span in
// the stream's most recent rehydrate trace.
func restoreOracleTag(t *testing.T, srv *Server, id string) string {
	t.Helper()
	st, ok := srv.resident(id)
	if !ok {
		t.Fatalf("stream %q is not resident", id)
	}
	traces := st.traces()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].Name() == "rehydrate" {
			a, _ := traces[i].Child("restore").Attr("oracle")
			return a.Str
		}
	}
	t.Fatalf("stream %q has no rehydrate trace", id)
	return ""
}

// readSnapshot decodes a stream's snapshot.bin.
func readSnapshot(t *testing.T, dataDir, id string) *wal.StreamSnapshot {
	t.Helper()
	payload, err := wal.ReadSnapshotFile(snapshotPath(dataDir, id))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wal.DecodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// pushRange sync-pushes instances [from, to) of seq.
func pushRange(t *testing.T, cl *Client, id string, seq *graph.Sequence, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := cl.PushAt(context.Background(), id, seq.At(i), int64(i), true); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

// TestHibernateRehydrateOracleRegimes: hibernation's snapshot carries
// the previous oracle, so a stream rehydrated by its next push scores
// it without rebuilding the oracle, and /report stays byte-identical to
// an uninterrupted detector in every embedding regime. The first cycle
// rehydrates from a compaction snapshot (hibernation writes none when
// the last push compacted), the second from hibernation's own.
func TestHibernateRehydrateOracleRegimes(t *testing.T) {
	const T = 14
	seq := reweightStream(48, T, 11)
	for _, rg := range oracleRegimes {
		t.Run(rg.name, func(t *testing.T) {
			dataDir := t.TempDir()
			srv, hs, cl, _ := bootServer(t, Config{DataDir: dataDir, SnapshotEvery: 4})
			if err := cl.CreateStream(context.Background(), "s", rg.cfg); err != nil {
				t.Fatal(err)
			}
			done := 0
			for _, stop := range []int{4, 9} {
				pushRange(t, cl, "s", seq, done, stop)
				done = stop
				requirePatchedForest(t, rg.cfg, seq, stop)
				want := httpGetBody(t, hs, "/v1/streams/s/report")
				if err := srv.HibernateStream("s"); err != nil {
					t.Fatal(err)
				}
				snap := readSnapshot(t, dataDir, "s")
				if snap.Instances != int64(stop) || snap.Oracle == nil {
					t.Fatalf("snapshot at %d instances, oracle block present = %v", snap.Instances, snap.Oracle != nil)
				}
				if got := snap.Oracle.Parent != nil; got != rg.cfg.SharedProjections {
					t.Fatalf("snapshot carries a forest = %v", got)
				}
				if got := httpGetBody(t, hs, "/v1/streams/s/report"); !bytes.Equal(want, got) {
					t.Fatal("report changed across hibernate→read")
				}
				pushRange(t, cl, "s", seq, done, done+1)
				done++
				if tag := restoreOracleTag(t, srv, "s"); tag != "restored" {
					t.Fatalf("restore span oracle = %q, want restored", tag)
				}
			}
			pushRange(t, cl, "s", seq, done, T)
			if got := httpGetBody(t, hs, "/v1/streams/s/report"); !bytes.Equal(got, uninterruptedReport(t, rg.cfg, seq, T)) {
				t.Fatal("post-rehydrate continuation diverged from an uninterrupted detector")
			}
			if n := oracleRebuilds(srv, "s"); n != 0 {
				t.Fatalf("cadd_oracle_rebuilds_total = %g after rehydrations that carried the oracle", n)
			}
		})
	}
}

// TestDurabilityCloseRecoverOracleRegimes: a clean shutdown's snapshot
// carries the previous oracle, so the recovered stream continues
// byte-identically to an uninterrupted detector without a rebuild.
func TestDurabilityCloseRecoverOracleRegimes(t *testing.T) {
	const T, split = 12, 7
	seq := reweightStream(48, T, 13)
	for _, rg := range oracleRegimes {
		t.Run(rg.name, func(t *testing.T) {
			cfg := Config{DataDir: t.TempDir(), SnapshotEvery: 5}
			_, _, cl, stop := bootServer(t, cfg)
			if err := cl.CreateStream(context.Background(), "s", rg.cfg); err != nil {
				t.Fatal(err)
			}
			pushRange(t, cl, "s", seq, 0, split)
			stop()
			requirePatchedForest(t, rg.cfg, seq, split)

			srv2, hs2, cl2, _ := bootServer(t, cfg)
			pushRange(t, cl2, "s", seq, split, T)
			if got := httpGetBody(t, hs2, "/v1/streams/s/report"); !bytes.Equal(got, uninterruptedReport(t, rg.cfg, seq, T)) {
				t.Fatal("post-recovery continuation diverged from an uninterrupted detector")
			}
			if n := oracleRebuilds(srv2, "s"); n != 0 {
				t.Fatalf("cadd_oracle_rebuilds_total = %g after a clean-shutdown recovery", n)
			}
		})
	}
}

// TestDurabilityWALTailRebuildsOracle: records replayed past the
// snapshot move the previous graph on, so the snapshot's oracle no
// longer applies; a crash with a non-empty WAL tail still rebuilds it
// on the first push, and says so.
func TestDurabilityWALTailRebuildsOracle(t *testing.T) {
	seq := reweightStream(48, 8, 17)
	for _, rg := range oracleRegimes {
		t.Run(rg.name, func(t *testing.T) {
			dataDir := t.TempDir()
			_, _, cl, _ := bootServer(t, Config{DataDir: dataDir, SnapshotEvery: 4})
			if err := cl.CreateStream(context.Background(), "s", rg.cfg); err != nil {
				t.Fatal(err)
			}
			pushRange(t, cl, "s", seq, 0, 6) // compaction at 4, two records in the tail
			crash := t.TempDir()
			copyDir(t, dataDir, crash)
			if snap := readSnapshot(t, crash, "s"); snap.Instances != 4 || snap.Oracle == nil {
				t.Fatalf("crash image snapshot at %d instances, oracle block present = %v", snap.Instances, snap.Oracle != nil)
			}

			srv2, _, cl2, _ := bootServer(t, Config{DataDir: crash, SnapshotEvery: 4})
			pushRange(t, cl2, "s", seq, 6, 7)
			if n := oracleRebuilds(srv2, "s"); n != 1 {
				t.Fatalf("cadd_oracle_rebuilds_total = %g, want 1 after recovering a WAL tail", n)
			}
			st, _ := srv2.resident("s")
			traces := st.traces()
			if len(traces) == 0 {
				t.Fatal("no push trace")
			}
			if a, ok := traces[len(traces)-1].Child("oracle").Attr("restored_prev"); !ok || !a.Bool {
				t.Fatal("first push after a WAL-tail recovery does not carry restored_prev")
			}
		})
	}
}

// TestDurabilityCorruptOracleBlockRefused: the oracle block comes from
// disk or a replica, so a malformed one fails the stream's recovery —
// logged, counted and skipped — rather than panicking or restoring a
// wrong oracle. A snapshot without the block (as written before the
// block existed) recovers and rebuilds the oracle on its first push.
func TestDurabilityCorruptOracleBlockRefused(t *testing.T) {
	seq := reweightStream(48, 6, 19)
	rg := oracleRegimes[2]
	dataDir := t.TempDir()
	_, _, cl, stop := bootServer(t, Config{DataDir: dataDir})
	if err := cl.CreateStream(context.Background(), "s", rg.cfg); err != nil {
		t.Fatal(err)
	}
	pushRange(t, cl, "s", seq, 0, 5)
	stop()
	n := seq.At(0).N()

	putFloat := func(b []byte, i int, v float64) { binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v)) }
	putInt := func(b []byte, i int, v int32) { binary.LittleEndian.PutUint32(b[4*i:], uint32(v)) }
	cases := []struct {
		name    string
		mutate  func(o *wal.OracleData)
		recover bool
	}{
		{"z not packed", func(o *wal.OracleData) { o.Z = o.Z[:len(o.Z)-3] }, false},
		{"z one vector short", func(o *wal.OracleData) { o.Z = o.Z[:len(o.Z)-8] }, false},
		{"NaN in z", func(o *wal.OracleData) { putFloat(o.Z, 5, math.NaN()) }, false},
		{"y missing", func(o *wal.OracleData) { o.Y = nil }, false},
		{"forest parent out of range", func(o *wal.OracleData) { putInt(o.Parent, 3, int32(n+5)) }, false},
		{"forest order repeats a vertex", func(o *wal.OracleData) { copy(o.Order[4:8], o.Order[0:4]) }, false},
		{"forest missing", func(o *wal.OracleData) { o.Parent, o.Order = nil, nil }, false},
		{"no oracle block", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dataDir, dir)
			snap := readSnapshot(t, dir, "s")
			if snap.Oracle == nil {
				t.Fatal("clean-shutdown snapshot carries no oracle block")
			}
			if tc.mutate == nil {
				snap.Oracle = nil
			} else {
				tc.mutate(snap.Oracle)
			}
			payload, err := wal.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteSnapshotFile(snapshotPath(dir, "s"), payload); err != nil {
				t.Fatal(err)
			}
			srv, _, cl, _ := bootServer(t, Config{DataDir: dir})
			_, ok := srv.StreamInfo("s")
			failures := srv.metrics.counterValue("cadd_recovery_failures_total", labels("stream", "s"))
			if ok != tc.recover || (failures == 0) != tc.recover {
				t.Fatalf("stream recovered = %v with %g recovery failures, want recovered = %v", ok, failures, tc.recover)
			}
			if !tc.recover {
				if _, err := os.Stat(filepath.Join(dir, "streams", "s", streamSnapshotFile)); err != nil {
					t.Fatalf("refused stream's directory not left for inspection: %v", err)
				}
				return
			}
			pushRange(t, cl, "s", seq, 5, 6)
			if got := oracleRebuilds(srv, "s"); got != 1 {
				t.Fatalf("cadd_oracle_rebuilds_total = %g, want 1 for a snapshot without the block", got)
			}
		})
	}
}
