package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"dyngraph/internal/commute"
	"dyngraph/internal/core"
	"dyngraph/internal/graph"
)

// growingTestSequence builds a deterministic T-instance sequence whose
// vertex set grows over time: instance i has n0+i vertices. The base
// block is a jittered clique; each newly added vertex k attaches to
// vertices k%n0 and (k+1)%n0, so every instance stays connected.
func growingTestSequence(t *testing.T, T, n0 int, seed int64) *graph.Sequence {
	t.Helper()
	gs := make([]*graph.Graph, T)
	for step := 0; step < T; step++ {
		n := n0 + step
		b := graph.NewBuilder(n)
		for i := 0; i < n0; i++ {
			for j := i + 1; j < n0; j++ {
				jitter := float64((seed+int64(step*7+i*3+j))%5) * 0.01
				b.SetEdge(i, j, 2+jitter)
			}
		}
		for k := n0; k < n; k++ {
			b.SetEdge(k%n0, k, 1+float64(int64(k)%3)*0.1)
			b.SetEdge((k+1)%n0, k, 0.5)
		}
		if step == T/2 {
			b.SetEdge(1, n0-1, 9) // planted anomaly on the common block
		}
		gs[step] = b.MustBuild()
	}
	seq, err := graph.NewDynamicSequence(gs)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// idSnapshot converts one instance of a growing sequence to an
// external-ID snapshot: vertex i is named "v<i>", so consecutive
// snapshots agree on identity and new vertices intern in index order.
func idSnapshot(g *graph.Graph) Snapshot {
	s := SnapshotFromGraph(g)
	ids := make([]string, g.N())
	for i := range ids {
		ids[i] = "v" + string(rune('a'+i/10)) + string(rune('0'+i%10))
	}
	s.IDs = ids
	return s
}

// TestGrowingStreamMatchesBatchDetector replays a growing sequence
// through a stream and checks the served /report is byte-identical to
// the batch detector run over the same dynamic sequence: transitions
// score on the common vertex set either way, and default-config cold
// oracle builds are pure functions of (graph, derived seed).
func TestGrowingStreamMatchesBatchDetector(t *testing.T) {
	_, hs, cl, _ := bootServer(t, Config{})
	ctx := context.Background()
	seq := growingTestSequence(t, 7, 8, 11)
	const l, seed = 3.0, 11

	if err := cl.CreateStream(ctx, "grow", StreamConfig{L: l, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "grow", seq.At(i), true); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	served := httpGetBody(t, hs, "/v1/streams/grow/report")

	det := core.New(core.Config{Commute: commute.Config{Seed: seed}})
	trs, err := det.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.Threshold(trs, core.SelectDelta(trs, l))
	var batch bytes.Buffer
	if err := core.WriteReportJSON(&batch, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, batch.Bytes()) {
		t.Fatalf("grown-stream report differs from batch run\nserved:\n%s\nbatch:\n%s", served, batch.Bytes())
	}
}

// TestFailedPushRetrySameInstance pins the cursor-rollback contract: a
// push that is accepted but fails to score must not burn its arrival
// index, so a corrected snapshot retried at the same ?instance value
// succeeds instead of acking as a duplicate (or 409-ing), and nothing
// about the failed push reaches the journal.
func TestFailedPushRetrySameInstance(t *testing.T) {
	dataDir := t.TempDir()
	srv, hs, cl, stop := bootServer(t, Config{DataDir: dataDir, SnapshotEvery: 100})
	ctx := context.Background()

	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushAt(ctx, "s", graph.NewBuilder(6).MustBuild(), 0, true); err != nil {
		t.Fatal(err)
	}
	// A shrinking snapshot is accepted into the queue but fails scoring.
	if _, err := cl.PushAt(ctx, "s", graph.NewBuilder(5).MustBuild(), 1, true); err == nil || !strings.Contains(err.Error(), "vertices") {
		t.Fatalf("shrink push: %v, want vertex error", err)
	}
	// The corrected snapshot at the same instance index must score —
	// before the fix this 409'd (or acked as a stale duplicate).
	res, err := cl.PushAt(ctx, "s", testSequence(t, 2, 1).At(1), 1, true)
	if err != nil {
		t.Fatalf("corrected push at instance 1: %v", err)
	}
	if res.Duplicate {
		t.Fatal("corrected push acked as duplicate — failed push advanced the cursor")
	}
	if res.Instance != 1 {
		t.Fatalf("corrected push landed at instance %d, want 1", res.Instance)
	}
	if res.Report == nil {
		t.Fatal("corrected push at instance 1 produced no transition report")
	}
	info, err := cl.StreamInfo(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 2 || info.Transitions != 1 {
		t.Fatalf("ingested=%d transitions=%d after corrected retry, want 2/1", info.Ingested, info.Transitions)
	}
	// A genuine duplicate of the corrected push still acks as one.
	res, err = cl.PushAt(ctx, "s", testSequence(t, 2, 1).At(1), 1, true)
	if err != nil || !res.Duplicate {
		t.Fatalf("re-push of scored instance: %+v, %v, want duplicate ack", res, err)
	}

	// The failed push never reached the journal: a restart replays only
	// the two scored instances and serves the identical report.
	want := httpGetBody(t, hs, "/v1/streams/s/report")
	stop()
	_, hs2, cl2, _ := bootServer(t, Config{DataDir: dataDir, SnapshotEvery: 100})
	got := httpGetBody(t, hs2, "/v1/streams/s/report")
	if !bytes.Equal(want, got) {
		t.Fatalf("report changed across restart:\n%s\nvs\n%s", want, got)
	}
	info2, err := cl2.StreamInfo(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Ingested != 2 {
		t.Fatalf("recovered ingested=%d, want 2", info2.Ingested)
	}
	_ = srv
}

// TestExternalIDStreamGrowth exercises the external-ID addressing
// mode: IDs intern in arrival order, unseen IDs grow the vertex set,
// the report names vertices by external ID, and the stream refuses to
// mix addressing modes.
func TestExternalIDStreamGrowth(t *testing.T) {
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "ids", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}

	s0 := Snapshot{N: 3, IDs: []string{"ann", "bob", "cat"},
		Edges: []SnapshotEdge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}}
	if _, err := cl.PushSnapshot(ctx, "ids", s0, true); err != nil {
		t.Fatal(err)
	}
	// Instance 1 lists known IDs in a different order and introduces
	// "dan": the dense mapping must follow first-seen order, not this
	// snapshot's positions.
	s1 := Snapshot{N: 4, IDs: []string{"cat", "dan", "ann", "bob"},
		Edges: []SnapshotEdge{{2, 3, 1}, {0, 3, 1}, {0, 2, 5}, {1, 2, 1}}}
	if _, err := cl.PushSnapshot(ctx, "ids", s1, true); err != nil {
		t.Fatal(err)
	}

	rep, err := cl.Report(ctx, "ids")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"ann", "bob", "cat", "dan"}
	if len(rep.VertexIDs) != len(wantIDs) {
		t.Fatalf("report vertex_ids = %v, want %v", rep.VertexIDs, wantIDs)
	}
	for i, id := range wantIDs {
		if rep.VertexIDs[i] != id {
			t.Fatalf("report vertex_ids = %v, want %v", rep.VertexIDs, wantIDs)
		}
	}

	// Mode is locked: a raw index snapshot on an ID stream is refused,
	// and the refusal does not advance the stream.
	if _, err := cl.Push(ctx, "ids", graph.NewBuilder(4).MustBuild(), true); err == nil || !strings.Contains(err.Error(), "raw index snapshot refused") {
		t.Fatalf("raw push on ID stream: %v, want mode refusal", err)
	}
	info, err := cl.StreamInfo(ctx, "ids")
	if err != nil {
		t.Fatal(err)
	}
	if info.Ingested != 2 {
		t.Fatalf("ingested=%d after refused raw push, want 2", info.Ingested)
	}

	// And the converse: an ID snapshot on a raw stream is refused.
	if err := cl.CreateStream(ctx, "raw", StreamConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Push(ctx, "raw", graph.NewBuilder(3).MustBuild(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PushSnapshot(ctx, "raw", s0, true); err == nil || !strings.Contains(err.Error(), "external-ID snapshot refused") {
		t.Fatalf("ID push on raw stream: %v, want mode refusal", err)
	}

	// Malformed ID snapshots are 400s, rejected before queueing.
	for name, bad := range map[string]Snapshot{
		"dup ids":    {N: 2, IDs: []string{"x", "x"}, Edges: nil},
		"short ids":  {N: 3, IDs: []string{"x", "y"}, Edges: nil},
		"empty id":   {N: 2, IDs: []string{"x", ""}, Edges: nil},
		"ids+labels": {N: 1, IDs: []string{"x"}, Labels: []string{"x"}},
		"edge oob":   {N: 2, IDs: []string{"x", "y"}, Edges: []SnapshotEdge{{0, 5, 1}}},
		"neg weight": {N: 2, IDs: []string{"x", "y"}, Edges: []SnapshotEdge{{0, 1, -1}}},
	} {
		if _, err := cl.PushSnapshot(ctx, "ids", bad, true); err == nil {
			t.Errorf("%s: accepted, want 400", name)
		}
	}

	// So are raw snapshots declaring more than maxSnapshotVertices: n
	// sizes the graph's row index, so an unchecked 1<<62 would panic the
	// handler in makeslice. The stream keeps serving afterwards.
	for _, n := range []int{1 << 62, maxSnapshotVertices + 1} {
		_, err := cl.PushSnapshot(ctx, "raw", Snapshot{N: n}, true)
		var se *StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
			t.Errorf("raw n=%d: %v, want 400", n, err)
		}
	}
	if _, err := cl.Push(ctx, "raw", graph.NewBuilder(3).MustBuild(), true); err != nil {
		t.Fatalf("valid raw push after the oversized ones: %v", err)
	}
}

// TestDurabilityRecoveryGrowth replays a growing external-ID stream,
// restarts the server from its journal (with the snapshot boundary
// placed so WAL replay crosses a vertex-set change), and requires the
// recovered report — external IDs included — byte-identical.
func TestDurabilityRecoveryGrowth(t *testing.T) {
	dataDir := t.TempDir()
	ext := growingTestSequence(t, 8, 8, 5)
	const prefix = 6
	// SnapshotEvery=3: instances 3..5 (each adding a vertex) live only
	// in the WAL, so replay itself must grow the vertex table.
	srv, hs, cl, stop := bootServer(t, Config{DataDir: dataDir, Fsync: true, SnapshotEvery: 3})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "g", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefix; i++ {
		if _, err := cl.PushSnapshot(ctx, "g", idSnapshot(ext.At(i)), true); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	want := httpGetBody(t, hs, "/v1/streams/g/report")
	_ = srv
	stop()

	_, hs2, cl2, _ := bootServer(t, Config{DataDir: dataDir, Fsync: true, SnapshotEvery: 3})
	got := httpGetBody(t, hs2, "/v1/streams/g/report")
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered report differs:\n%s\nvs\n%s", want, got)
	}
	rep, err := cl2.Report(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VertexIDs) != ext.At(prefix-1).N() {
		t.Fatalf("recovered vertex_ids has %d entries, want %d", len(rep.VertexIDs), ext.At(prefix-1).N())
	}
	// The recovered stream keeps growing: push two more instances and
	// compare against an uninterrupted replay of the whole thing.
	for i := prefix; i < ext.T(); i++ {
		if _, err := cl2.PushSnapshot(ctx, "g", idSnapshot(ext.At(i)), true); err != nil {
			t.Fatalf("post-recovery push %d: %v", i, err)
		}
	}
	full := httpGetBody(t, hs2, "/v1/streams/g/report")

	_, hsRef, clRef, _ := bootServer(t, Config{})
	if err := clRef.CreateStream(ctx, "ref", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ext.T(); i++ {
		if _, err := clRef.PushSnapshot(ctx, "ref", idSnapshot(ext.At(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	ref := httpGetBody(t, hsRef, "/v1/streams/ref/report")
	if !bytes.Equal(full, ref) {
		t.Fatal("post-recovery continuation diverged from an uninterrupted run")
	}
}

// TestHibernateRehydrateGrowth round-trips a grown external-ID stream
// through hibernation: the snapshot carries the vertex table, and the
// rehydrated stream serves the identical report and keeps accepting
// growth.
func TestHibernateRehydrateGrowth(t *testing.T) {
	dataDir := t.TempDir()
	seq := growingTestSequence(t, 8, 8, 9)
	srv, hs, cl, _ := bootServer(t, Config{DataDir: dataDir, Fsync: true, SnapshotEvery: 3})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "g", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.PushSnapshot(ctx, "g", idSnapshot(seq.At(i)), true); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	want := httpGetBody(t, hs, "/v1/streams/g/report")

	if err := srv.HibernateStream("g"); err != nil {
		t.Fatalf("hibernate: %v", err)
	}
	got := httpGetBody(t, hs, "/v1/streams/g/report")
	if !bytes.Equal(want, got) {
		t.Fatalf("report changed across hibernate→rehydrate:\n%s\nvs\n%s", want, got)
	}
	// The rehydrated worker rebuilt its vertex table from the restored
	// detector: pushes that grow the set further must keep working.
	for i := 6; i < seq.T(); i++ {
		if _, err := cl.PushSnapshot(ctx, "g", idSnapshot(seq.At(i)), true); err != nil {
			t.Fatalf("post-rehydrate push %d: %v", i, err)
		}
	}
	rep, err := cl.Report(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VertexIDs) != seq.N() {
		t.Fatalf("vertex_ids has %d entries after post-rehydrate growth, want %d", len(rep.VertexIDs), seq.N())
	}
}

// TestExternalIDVertexCap: an external-ID stream's vertex table grows
// across pushes, so it is capped like a push's declared n. A snapshot
// that would intern past the cap is refused; known ids never count
// against it. The cap is graphWithTable's argument, so the test needs
// no 2^24 ids; the worker passes maxSnapshotVertices and truncates the
// partial interns a refusal leaves.
func TestExternalIDVertexCap(t *testing.T) {
	const limit = 4
	vt := graph.NewVertexTable()
	build := func(ids ...string) error {
		snap := Snapshot{N: len(ids), IDs: ids, Edges: []SnapshotEdge{{0, 1, 1}}}
		if err := snap.validateIDs(); err != nil {
			t.Fatal(err)
		}
		_, _, err := snap.graphWithTable(vt, limit)
		return err
	}
	if err := build("ann", "bob", "cat"); err != nil {
		t.Fatalf("3 of %d vertices: %v", limit, err)
	}
	if err := build("cat", "bob", "ann"); err != nil {
		t.Fatalf("re-pushing known ids: %v", err)
	}
	pre := vt.Len()
	if err := build("ann", "dan", "eve"); err == nil || !strings.Contains(err.Error(), "limit of 4 vertices") {
		t.Fatalf("growing past the cap: %v, want a refusal", err)
	}
	vt.Truncate(pre) // the worker's rollback
	if err := build("dan", "ann"); err != nil || vt.Len() != limit {
		t.Fatalf("growing to exactly the cap: %v, table holds %d", err, vt.Len())
	}
}
