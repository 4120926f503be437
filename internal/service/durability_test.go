package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dyngraph/internal/wal"
)

// bootServer starts a server (recovering any journal under
// cfg.DataDir) and registers a guarded cleanup, so tests can also stop
// it explicitly mid-test to simulate a restart.
func bootServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client, func()) {
	t.Helper()
	srv := New(cfg)
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	t.Cleanup(stop)
	return srv, hs, NewClient(hs.URL, hs.Client()), stop
}

// httpGetBody fetches a path's raw bytes — the byte-identical /report
// comparisons must not round-trip through a JSON decode.
func httpGetBody(t *testing.T, hs *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// copyDir snapshots a directory tree — the "crash image" the recovery
// matrix boots servers from. Copying after a sync push returns is a
// consistent point-in-time image: the ack ordering guarantees the
// journal record landed first.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, buf, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// referenceReport runs the same prefix through a fresh non-durable
// server and returns its /report bytes — what any recovered server
// must reproduce exactly.
func referenceReport(t *testing.T, prefix int) []byte {
	t.Helper()
	seq := testSequence(t, 8, 42)
	_, hs, cl, stop := bootServer(t, Config{})
	defer stop()
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "ref", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefix; i++ {
		if _, err := cl.Push(ctx, "ref", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	return httpGetBody(t, hs, "/v1/streams/ref/report")
}

func TestDurabilityRestartByteIdenticalReport(t *testing.T) {
	dataDir := t.TempDir()
	seq := testSequence(t, 8, 42)
	cfg := Config{DataDir: dataDir, Fsync: true, SnapshotEvery: 3}
	ctx := context.Background()

	srv, hs, cl, stop := bootServer(t, cfg)
	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.PushAt(ctx, "s", seq.At(i), int64(i), true); err != nil {
			t.Fatal(err)
		}
	}
	want := httpGetBody(t, hs, "/v1/streams/s/report")
	stop()
	_ = srv

	// A graceful stop compacts: everything in the snapshot, empty WAL.
	if st, err := os.Stat(filepath.Join(dataDir, "streams", "s", streamWALFile)); err != nil || st.Size() != 0 {
		t.Fatalf("post-shutdown WAL not compacted: %v, size %d", err, st.Size())
	}

	srv2, hs2, cl2, stop2 := bootServer(t, cfg)
	defer stop2()
	got := httpGetBody(t, hs2, "/v1/streams/s/report")
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered report differs:\n%s\nvs\n%s", want, got)
	}
	if v := srv2.metrics.counterValue("cadd_recovered_streams_total", ""); v != 1 {
		t.Fatalf("cadd_recovered_streams_total = %g, want 1", v)
	}
	info, err := cl2.StreamInfo(ctx, "s")
	if err != nil || info.Ingested != 6 || info.Transitions != 5 {
		t.Fatalf("recovered info %+v, %v; want 6 ingested, 5 transitions", info, err)
	}

	// At-least-once resume: replaying the whole stream from 0 acks the
	// journaled prefix as duplicates, then the tail scores normally.
	for i := 0; i < seq.T(); i++ {
		res, err := cl2.PushAt(ctx, "s", seq.At(i), int64(i), true)
		if err != nil {
			t.Fatalf("resume push %d: %v", i, err)
		}
		if wantDup := i < 6; res.Duplicate != wantDup {
			t.Fatalf("push %d: duplicate = %v, want %v", i, res.Duplicate, wantDup)
		}
	}
	full := httpGetBody(t, hs2, "/v1/streams/s/report")
	if !bytes.Equal(full, referenceReport(t, seq.T())) {
		t.Fatal("post-recovery continuation diverged from an uninterrupted run")
	}
}

// TestDurabilityRecoveryMatrix boots servers from crash images in
// every recoverable shape: WAL only, snapshot + WAL tail, a torn final
// record, and a corrupt CRC mid-log.
func TestDurabilityRecoveryMatrix(t *testing.T) {
	seq := testSequence(t, 8, 42)
	ctx := context.Background()

	// Source run A: frequent snapshots → image holds snapshot + tail.
	dirA := t.TempDir()
	_, _, clA, stopA := bootServer(t, Config{DataDir: dirA, Fsync: true, SnapshotEvery: 2})
	if err := clA.CreateStream(ctx, "s", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := clA.Push(ctx, "s", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	imageA := t.TempDir()
	copyDir(t, dirA, imageA) // 5 pushes: snapshot covers 4, WAL holds 1
	stopA()

	// Source run B: no compaction within the run → WAL-only image.
	dirB := t.TempDir()
	_, _, clB, stopB := bootServer(t, Config{DataDir: dirB, Fsync: true, SnapshotEvery: 100})
	if err := clB.CreateStream(ctx, "s", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := clB.Push(ctx, "s", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	imageB := t.TempDir()
	copyDir(t, dirB, imageB)
	stopB()

	walOf := func(image string) string { return filepath.Join(image, "streams", "s", streamWALFile) }
	boot := func(image string) (*Server, *httptest.Server, *Client, func()) {
		return bootServer(t, Config{DataDir: image, Fsync: true, SnapshotEvery: 2})
	}
	checkRecovered := func(t *testing.T, srv *Server, hs *httptest.Server, cl *Client, instances int, truncations float64) {
		t.Helper()
		info, err := cl.StreamInfo(ctx, "s")
		if err != nil {
			t.Fatal(err)
		}
		if info.Ingested != int64(instances) || info.Transitions != instances-1 {
			t.Fatalf("recovered %d ingested / %d transitions, want %d / %d",
				info.Ingested, info.Transitions, instances, instances-1)
		}
		if v := srv.metrics.counterValue("cadd_wal_truncations_total", ""); v != truncations {
			t.Fatalf("cadd_wal_truncations_total = %g, want %g", v, truncations)
		}
		if got := httpGetBody(t, hs, "/v1/streams/s/report"); !bytes.Equal(got, referenceReport(t, instances)) {
			t.Fatalf("recovered report differs from uninterrupted %d-push reference", instances)
		}
		// The recovered stream scores new instances: the lazily rebuilt
		// oracle continues the stream bit-exactly in the exact regime.
		if _, err := cl.PushAt(ctx, "s", seq.At(instances), int64(instances), true); err != nil {
			t.Fatalf("post-recovery push: %v", err)
		}
	}

	t.Run("snapshot plus WAL tail", func(t *testing.T) {
		image := t.TempDir()
		copyDir(t, imageA, image)
		srv, hs, cl, stop := boot(image)
		defer stop()
		checkRecovered(t, srv, hs, cl, 5, 0)
	})

	t.Run("WAL only", func(t *testing.T) {
		image := t.TempDir()
		copyDir(t, imageB, image)
		srv, hs, cl, stop := boot(image)
		defer stop()
		checkRecovered(t, srv, hs, cl, 3, 0)
	})

	t.Run("torn final record", func(t *testing.T) {
		image := t.TempDir()
		copyDir(t, imageB, image)
		st, err := os.Stat(walOf(image))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(walOf(image), st.Size()-7); err != nil {
			t.Fatal(err)
		}
		srv, hs, cl, stop := boot(image)
		defer stop()
		checkRecovered(t, srv, hs, cl, 2, 1)
	})

	t.Run("corrupt CRC mid log", func(t *testing.T) {
		image := t.TempDir()
		copyDir(t, imageB, image)
		raw, err := os.ReadFile(walOf(image))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xFF // lands in the 2nd or 3rd record's frame
		if err := os.WriteFile(walOf(image), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, _, cl, stop := boot(image)
		defer stop()
		info, err := cl.StreamInfo(ctx, "s")
		if err != nil {
			t.Fatal(err)
		}
		if info.Ingested == 0 || info.Ingested >= 3 {
			t.Fatalf("corrupt-CRC recovery kept %d instances, want a proper non-empty prefix", info.Ingested)
		}
		if v := srv.metrics.counterValue("cadd_wal_truncations_total", ""); v != 1 {
			t.Fatalf("cadd_wal_truncations_total = %g, want 1", v)
		}
	})

	t.Run("corrupt config refuses recovery and recreate", func(t *testing.T) {
		image := t.TempDir()
		copyDir(t, imageB, image)
		cfgPath := filepath.Join(image, "streams", "s", streamConfigFile)
		if err := os.WriteFile(cfgPath, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, _, cl, stop := boot(image)
		defer stop()
		if _, err := cl.StreamInfo(ctx, "s"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unrecoverable stream should be absent, got %v", err)
		}
		if v := srv.metrics.counterValue("cadd_recovery_failures_total", labels("stream", "s")); v != 1 {
			t.Fatalf("cadd_recovery_failures_total = %g, want 1", v)
		}
		// The directory still holds (possibly salvageable) data, so the
		// id is refused until an operator removes it.
		if err := cl.CreateStream(ctx, "s", StreamConfig{}); err == nil {
			t.Fatal("create over unrecovered journal data was allowed")
		}
	})

	t.Run("corrupt snapshot refuses recovery", func(t *testing.T) {
		image := t.TempDir()
		copyDir(t, imageA, image)
		snapPath := filepath.Join(image, "streams", "s", streamSnapshotFile)
		raw, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x01
		if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, _, cl, stop := boot(image)
		defer stop()
		if _, err := cl.StreamInfo(ctx, "s"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("stream with corrupt snapshot should be absent, got %v", err)
		}
		if v := srv.metrics.counterValue("cadd_recovery_failures_total", labels("stream", "s")); v != 1 {
			t.Fatalf("cadd_recovery_failures_total = %g, want 1", v)
		}
	})
}

func TestDurabilityDeleteRemovesJournal(t *testing.T) {
	dataDir := t.TempDir()
	ctx := context.Background()
	_, _, cl, stop := bootServer(t, Config{DataDir: dataDir, Fsync: false})
	defer stop()
	seq := testSequence(t, 3, 7)
	if err := cl.CreateStream(ctx, "gone", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Push(ctx, "gone", seq.At(0), true); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(dataDir, "streams", "gone")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("journal dir missing while stream lives: %v", err)
	}
	if err := cl.DeleteStream(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("journal dir survived delete: %v", err)
	}
	// The id is reusable after delete.
	if err := cl.CreateStream(ctx, "gone", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestPushAtIdempotencyWithoutDurability(t *testing.T) {
	// The idempotency protocol is purely an arrival-index contract; it
	// works with or without a journal behind it.
	_, _, cl, stop := bootServer(t, Config{})
	defer stop()
	ctx := context.Background()
	seq := testSequence(t, 4, 9)
	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	if res, err := cl.PushAt(ctx, "s", seq.At(0), 0, true); err != nil || res.Duplicate {
		t.Fatalf("first indexed push: %+v, %v", res, err)
	}
	if res, err := cl.PushAt(ctx, "s", seq.At(0), 0, true); err != nil || !res.Duplicate {
		t.Fatalf("re-push of instance 0: %+v, %v; want duplicate ack", res, err)
	}
	_, err := cl.PushAt(ctx, "s", seq.At(3), 3, true)
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusConflict {
		t.Fatalf("gap push: %v, want HTTP 409", err)
	}
	if res, err := cl.PushAt(ctx, "s", seq.At(1), 1, true); err != nil || res.Duplicate {
		t.Fatalf("in-order push after gap rejection: %+v, %v", res, err)
	}
	info, err := cl.StreamInfo(ctx, "s")
	if err != nil || info.Ingested != 2 {
		t.Fatalf("info %+v, %v; duplicates or gaps must not advance ingestion", info, err)
	}
}

// TestDurabilityVertexCapRefused: a snapshot's N, its previous graph's
// N and a WAL record's graph N come from disk or a replica and size a
// graph even without edges, so a CRC-valid journal declaring one past
// maxSnapshotVertices is refused — logged, counted and skipped — before
// anything is allocated by it. Governed and ungoverned boots both
// refuse it and boot the rest of the data dir.
func TestDurabilityVertexCapRefused(t *testing.T) {
	const over = maxSnapshotVertices + 1
	dataDir := t.TempDir()
	seq := testSequence(t, 4, 31)
	_, hs, cl, stop := bootServer(t, Config{DataDir: dataDir})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "ok", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Push(ctx, "ok", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	want := httpGetBody(t, hs, "/v1/streams/ok/report")
	stop()

	// writeStream lays out a stream directory by hand: a config, and the
	// snapshot or first WAL record under test.
	writeStream := func(id string, snap *wal.StreamSnapshot, rec *wal.PushRecord) {
		t.Helper()
		dir := streamDir(dataDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, streamConfigFile), []byte(`{"l":2}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			payload, err := wal.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteSnapshotFile(filepath.Join(dir, streamSnapshotFile), payload); err != nil {
				t.Fatal(err)
			}
		}
		var frame []byte
		if rec != nil {
			rec.Digest = wal.StateDigest(0, rec.Instance, rec.Delta, rec.Evicted, rec.Total)
			payload, err := wal.EncodeRecord(rec)
			if err == nil {
				frame, err = wal.EncodeFrame(payload)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, streamWALFile), frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad := []string{"snapshot-n", "snapshot-prev-n", "snapshot-negative-n", "record-n"}
	writeStream(bad[0], &wal.StreamSnapshot{N: over, Instances: 1, Prev: &wal.GraphData{N: over}}, nil)
	writeStream(bad[1], &wal.StreamSnapshot{N: 3, Instances: 1, Prev: &wal.GraphData{N: over}}, nil)
	writeStream(bad[2], &wal.StreamSnapshot{N: -1, Instances: 1}, nil)
	writeStream(bad[3], nil, &wal.PushRecord{Instance: 0, Graph: wal.GraphData{N: over}})

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ungoverned", Config{}},
		{"governed", Config{HibernateAfter: time.Hour, GovernorInterval: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			image := t.TempDir()
			copyDir(t, dataDir, image)
			tc.cfg.DataDir = image
			srv, hs, cl, _ := bootServer(t, tc.cfg)
			for _, id := range bad {
				if _, ok := srv.StreamInfo(id); ok {
					t.Fatalf("stream %s declaring %d vertices was recovered", id, over)
				}
				if v := srv.metrics.counterValue("cadd_recovery_failures_total", labels("stream", id)); v != 1 {
					t.Fatalf("cadd_recovery_failures_total{stream=%q} = %g, want 1", id, v)
				}
			}
			if got := httpGetBody(t, hs, "/v1/streams/ok/report"); !bytes.Equal(got, want) {
				t.Fatal("the valid stream beside the refused ones recovered a different report")
			}
			if _, err := cl.PushAt(ctx, "ok", seq.At(3), 3, true); err != nil {
				t.Fatalf("push to the valid stream: %v", err)
			}
		})
	}
}

// TestCreateStreamRefusesUnknownFields: a create body naming a field
// StreamConfig does not have — a retired option or a misspelling — is
// refused with 400 rather than served as if it had not been asked for,
// and leaves neither a stream nor a stream directory behind.
func TestCreateStreamRefusesUnknownFields(t *testing.T) {
	dataDir := t.TempDir()
	srv, hs, cl, _ := bootServer(t, Config{DataDir: dataDir})
	for name, body := range map[string]string{
		"retired option": `{"l":3,"sparsify_target_nnz":30}`,
		"misspelling":    `{"l":3,"shared_projection":true}`,
	} {
		req, err := http.NewRequest(http.MethodPut, hs.URL+"/v1/streams/s", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Fatalf("%s: %d %s, want 400 naming the unknown field", name, resp.StatusCode, msg)
		}
		if _, ok := srv.StreamInfo("s"); ok {
			t.Fatalf("%s: the refused create registered a stream", name)
		}
		if _, err := os.Stat(streamDir(dataDir, "s")); !os.IsNotExist(err) {
			t.Fatalf("%s: the refused create left a stream directory: %v", name, err)
		}
	}
	if err := cl.CreateStream(context.Background(), "s", StreamConfig{L: 3}); err != nil {
		t.Fatalf("valid create after the refused ones: %v", err)
	}
}

// TestDurabilityRetiredConfigRefused: a data dir whose stream config
// names a field StreamConfig does not have — here the retired
// sparsify_target_nnz — boots with that stream refused, counted in
// cadd_recovery_failures_total and its directory left for inspection,
// while the valid stream beside it recovers its report byte-identical,
// under governed and ungoverned boots alike.
func TestDurabilityRetiredConfigRefused(t *testing.T) {
	dataDir := t.TempDir()
	seq := testSequence(t, 4, 37)
	_, hs, cl, stop := bootServer(t, Config{DataDir: dataDir})
	ctx := context.Background()
	for _, id := range []string{"ok", "retired"} {
		if err := cl.CreateStream(ctx, id, StreamConfig{L: 2}); err != nil {
			t.Fatal(err)
		}
		pushRange(t, cl, id, seq, 0, 3)
	}
	want := httpGetBody(t, hs, "/v1/streams/ok/report")
	stop()
	cfgPath := filepath.Join(streamDir(dataDir, "retired"), streamConfigFile)
	if err := os.WriteFile(cfgPath, []byte(`{"l":2,"sparsify_target_nnz":30}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ungoverned", Config{}},
		{"governed", Config{HibernateAfter: time.Hour, GovernorInterval: time.Hour}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			image := t.TempDir()
			copyDir(t, dataDir, image)
			tc.cfg.DataDir = image
			srv, hs, cl, _ := bootServer(t, tc.cfg)
			if _, ok := srv.StreamInfo("retired"); ok {
				t.Fatal("the stream whose config names a retired field was recovered")
			}
			if v := srv.metrics.counterValue("cadd_recovery_failures_total", labels("stream", "retired")); v != 1 {
				t.Fatalf("cadd_recovery_failures_total{stream=\"retired\"} = %g, want 1", v)
			}
			if _, err := os.Stat(filepath.Join(streamDir(image, "retired"), streamWALFile)); err != nil {
				t.Fatalf("the refused stream's directory was not left in place: %v", err)
			}
			if err := cl.CreateStream(ctx, "retired", StreamConfig{L: 2}); err == nil {
				t.Fatal("create over the refused stream's directory was allowed")
			}
			if got := httpGetBody(t, hs, "/v1/streams/ok/report"); !bytes.Equal(got, want) {
				t.Fatal("the valid stream beside the refused one recovered a different report")
			}
		})
	}
}
