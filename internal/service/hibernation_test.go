package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHibernateRehydrateByteIdenticalReport is the core equivalence
// guarantee: hibernating a stream and lazily rehydrating it on the
// next read must not change a single byte of its /report.
func TestHibernateRehydrateByteIdenticalReport(t *testing.T) {
	dataDir := t.TempDir()
	seq := testSequence(t, 8, 42)
	srv, hs, cl, _ := bootServer(t, Config{DataDir: dataDir, Fsync: true, SnapshotEvery: 3})
	ctx := context.Background()

	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := cl.Push(ctx, "s", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	want := httpGetBody(t, hs, "/v1/streams/s/report")

	if err := srv.HibernateStream("s"); err != nil {
		t.Fatalf("hibernate: %v", err)
	}
	if r, h := srv.stateCounts(); r != 0 || h != 1 {
		t.Fatalf("resident=%d hibernated=%d after hibernate, want 0/1", r, h)
	}
	if got := srv.AccountedBytes(); got != 0 {
		t.Fatalf("ledger still accounts %d bytes for a hibernated stream", got)
	}
	// Hibernation's final snapshot compacts the journal: the WAL is
	// empty and the stream holds no open file descriptor.
	if st, err := os.Stat(filepath.Join(dataDir, "streams", "s", streamWALFile)); err != nil || st.Size() != 0 {
		t.Fatalf("post-hibernate WAL not compacted: %v, size %d", err, st.Size())
	}
	info, ok := srv.StreamInfo("s")
	if !ok || info.State != StreamStateHibernated || info.Ingested != 6 {
		t.Fatalf("hibernated info %+v, ok=%v", info, ok)
	}

	// The GET transparently rehydrates and must reproduce the report
	// byte for byte.
	got := httpGetBody(t, hs, "/v1/streams/s/report")
	if !bytes.Equal(want, got) {
		t.Fatalf("report changed across hibernate→rehydrate:\n%s\nvs\n%s", want, got)
	}
	if info, _ := srv.StreamInfo("s"); info.State != StreamStateResident {
		t.Fatalf("stream state %q after rehydrating read, want resident", info.State)
	}
	if v := srv.metrics.counterValue("cadd_hibernations_total", ""); v != 1 {
		t.Fatalf("cadd_hibernations_total = %g, want 1", v)
	}
	if v := srv.metrics.counterValue("cadd_rehydrations_total", ""); v != 1 {
		t.Fatalf("cadd_rehydrations_total = %g, want 1", v)
	}

	// The stream keeps scoring correctly after the round trip: the full
	// sequence must match an uninterrupted run.
	for i := 6; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "s", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	full := httpGetBody(t, hs, "/v1/streams/s/report")
	if !bytes.Equal(full, referenceReport(t, seq.T())) {
		t.Fatal("post-rehydrate continuation diverged from an uninterrupted run")
	}
}

// TestHibernateEdgeCases pins the refusal and no-op paths: no
// durability → error; double hibernate → silent no-op; unknown
// stream → errUnknownStream.
func TestHibernateEdgeCases(t *testing.T) {
	// Without a data dir there is nothing to rehydrate from.
	srv := New(Config{})
	defer shutdownServer(t, srv)
	if err := srv.CreateStream("mem", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	if err := srv.HibernateStream("mem"); err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("hibernate without data dir: %v, want durability refusal", err)
	}
	if err := srv.HibernateStream("ghost"); !errors.Is(err, errUnknownStream) {
		t.Fatalf("hibernate unknown stream: %v", err)
	}

	srv2, _, cl, _ := bootServer(t, Config{DataDir: t.TempDir(), Fsync: true})
	ctx := context.Background()
	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	seq := testSequence(t, 3, 1)
	if _, err := cl.Push(ctx, "s", seq.At(0), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second call is the no-op
		if err := srv2.HibernateStream("s"); err != nil {
			t.Fatalf("hibernate #%d: %v", i+1, err)
		}
	}
	if v := srv2.metrics.counterValue("cadd_hibernations_total", ""); v != 1 {
		t.Fatalf("double hibernate incremented the counter: %g", v)
	}
	// The first acquire rehydrates; a second, on the now resident
	// stream, is equally a no-op.
	for i := 0; i < 2; i++ {
		if _, err := srv2.acquire("s"); err != nil {
			t.Fatal(err)
		}
	}
	if v := srv2.metrics.counterValue("cadd_rehydrations_total", ""); v != 1 {
		t.Fatalf("cadd_rehydrations_total = %g, want 1", v)
	}
}

// TestHibernatedStreamsStayEnumerable: /streams (admin), /v1/streams
// and /metrics must keep listing hibernated streams — hibernation is
// an internal residency change, not a disappearance.
func TestHibernatedStreamsStayEnumerable(t *testing.T) {
	srv, hs, cl, _ := bootServer(t, Config{DataDir: t.TempDir(), Fsync: true})
	ctx := context.Background()
	seq := testSequence(t, 4, 9)
	for _, id := range []string{"alpha", "beta"} {
		if err := cl.CreateStream(ctx, id, StreamConfig{L: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.Push(ctx, id, seq.At(i), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	beforeBytes := srv.ledger.Bytes("alpha")
	if beforeBytes <= 0 {
		t.Fatalf("ledger has no footprint for alpha: %d", beforeBytes)
	}
	if err := srv.HibernateStream("alpha"); err != nil {
		t.Fatal(err)
	}

	// The versioned list still carries both streams, with states.
	infos, err := cl.Streams(ctx)
	if err != nil || len(infos) != 2 {
		t.Fatalf("Streams: %v, %d entries", err, len(infos))
	}
	states := map[string]string{}
	for _, in := range infos {
		states[in.ID] = in.State
	}
	if states["alpha"] != StreamStateHibernated || states["beta"] != StreamStateResident {
		t.Fatalf("states = %v", states)
	}

	// The admin endpoint reports residency, bytes and last-push, both
	// via raw JSON and through the typed client.
	var raw []map[string]any
	if err := json.Unmarshal(httpGetBody(t, hs, "/streams"), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 2 || raw[0]["id"] != "alpha" || raw[0]["state"] != "hibernated" {
		t.Fatalf("admin JSON = %v", raw)
	}
	admin, err := cl.AdminStreams(ctx)
	if err != nil || len(admin) != 2 {
		t.Fatalf("AdminStreams: %v, %d entries", err, len(admin))
	}
	if admin[0].ID != "alpha" || admin[0].State != StreamStateHibernated ||
		admin[0].ResidentBytes != beforeBytes || admin[0].Ingested != 3 {
		t.Fatalf("admin[alpha] = %+v (footprint before hibernate was %d)", admin[0], beforeBytes)
	}
	if admin[0].LastPush == "" {
		t.Fatal("hibernated stream lost its last-push time")
	}
	if _, err := time.Parse(time.RFC3339Nano, admin[0].LastPush); err != nil {
		t.Fatalf("LastPush %q is not RFC 3339: %v", admin[0].LastPush, err)
	}
	if admin[1].ID != "beta" || admin[1].State != StreamStateResident || admin[1].ResidentBytes <= 0 {
		t.Fatalf("admin[beta] = %+v", admin[1])
	}

	// /metrics carries the residency gauges.
	metrics := string(httpGetBody(t, hs, "/metrics"))
	for _, want := range []string{"cadd_resident_streams 1", "cadd_hibernated_streams 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(metrics, "cadd_resident_bytes "+fmt.Sprint(srv.AccountedBytes())) {
		t.Fatal("metrics missing the resident-bytes gauge")
	}
}

// TestGovernorIdlePolicy drives governOnce with synthetic clocks: a
// stream idle past HibernateAfter hibernates, a fresh one does not,
// and the MinResident floor always holds.
func TestGovernorIdlePolicy(t *testing.T) {
	srv, _, cl, _ := bootServer(t, Config{
		DataDir:          t.TempDir(),
		Fsync:            true,
		HibernateAfter:   time.Minute,
		MinResident:      1,
		GovernorInterval: time.Hour, // keep the background pass out of the test
	})
	ctx := context.Background()
	seq := testSequence(t, 3, 5)
	for _, id := range []string{"a", "b", "c"} {
		if err := cl.CreateStream(ctx, id, StreamConfig{L: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Push(ctx, id, seq.At(0), true); err != nil {
			t.Fatal(err)
		}
	}

	if n := srv.governOnce(time.Now()); n != 0 {
		t.Fatalf("nothing is idle yet, but the governor hibernated %d", n)
	}
	// Touch "c" in the future so it stays inside the idle window when
	// the pass runs from two minutes out; a and c are candidates for
	// survival, but MinResident=1 means exactly one survivor.
	future := time.Now().Add(2 * time.Minute)
	srv.lru.Touch("c", future.Add(-time.Second))
	if n := srv.governOnce(future); n != 2 {
		t.Fatalf("idle pass hibernated %d streams, want 2", n)
	}
	if r, h := srv.stateCounts(); r != 1 || h != 2 {
		t.Fatalf("resident=%d hibernated=%d, want 1/2 (MinResident floor)", r, h)
	}
	if info, _ := srv.StreamInfo("c"); info.State != StreamStateResident {
		t.Fatal("the recently-touched stream should have survived the idle pass")
	}
}

// TestGovernorWatermarkReclaim: past the high watermark, the governor
// hibernates the coldest streams until the ledger is back under the
// low watermark, never below MinResident.
func TestGovernorWatermarkReclaim(t *testing.T) {
	dataDir := t.TempDir()
	seq := testSequence(t, 3, 7)
	// Boot without a budget to learn one stream's footprint first.
	probe, _, probeCl, probeStop := bootServer(t, Config{DataDir: dataDir, Fsync: false})
	ctx := context.Background()
	if err := probeCl.CreateStream(ctx, "probe", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := probeCl.Push(ctx, "probe", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	perStream := probe.ledger.Bytes("probe")
	if perStream <= 0 {
		t.Fatalf("no footprint accounted: %d", perStream)
	}
	probeStop()

	// Budget for about four streams; push eight. Reclaim must bring the
	// total under the low watermark (75%).
	budgetBytes := 4*perStream + perStream/2
	srv, _, cl, _ := bootServer(t, Config{
		DataDir:          t.TempDir(),
		Fsync:            false,
		MemBudgetBytes:   budgetBytes,
		MinResident:      1,
		GovernorInterval: time.Hour,
	})
	// Crossing the high watermark kicks the background governor, which
	// would reclaim concurrently and race every assertion below. Join it
	// so this test drives the identical pass synchronously; nil-ing the
	// stop channel keeps Shutdown's own stop a no-op.
	srv.stopGovernor()
	srv.govStop = nil
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("s%d", i)
		if err := cl.CreateStream(ctx, id, StreamConfig{L: 2}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, err := cl.Push(ctx, id, seq.At(j), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !srv.ledger.OverHigh() {
		t.Fatalf("8 streams × %dB should exceed the %dB high watermark", perStream, budgetBytes)
	}
	hibernated := srv.EnforceBudget()
	if hibernated == 0 {
		t.Fatal("watermark pass hibernated nothing")
	}
	low := budgetBytes * 3 / 4
	if got := srv.AccountedBytes(); got > low {
		t.Fatalf("post-reclaim total %dB still above the low watermark %dB", got, low)
	}
	if r := srv.ResidentCount(); r < srv.cfg.MinResident {
		t.Fatalf("reclaim went below MinResident: %d", r)
	}
	// The coldest (earliest-created, never re-touched) streams went
	// first: s0 must be hibernated, and the newest survivor resident.
	if info, _ := srv.StreamInfo("s0"); info.State != StreamStateHibernated {
		t.Fatal("the coldest stream survived a watermark reclaim")
	}
}

// TestManyStreamsBoundedResidency is the scale acceptance test: a
// sustained load of streams far past the budget keeps the accounted
// working set bounded the whole run — the peak, not just the final
// total, stays under the budget.
func TestManyStreamsBoundedResidency(t *testing.T) {
	total := 10000
	if testing.Short() {
		total = 500
	}
	seq := testSequence(t, 2, 11)
	g := seq.At(0)

	// Learn the per-stream footprint, then budget for ~25 of them.
	probe, _, _, probeStop := bootServer(t, Config{DataDir: t.TempDir(), Fsync: false})
	if err := probe.CreateStream("probe", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Push("probe", g, true); err != nil {
		t.Fatal(err)
	}
	perStream := probe.ledger.Bytes("probe")
	probeStop()

	budgetBytes := 25 * perStream
	srv, _, _, _ := bootServer(t, Config{
		DataDir:          t.TempDir(),
		Fsync:            false,
		MaxStreams:       total,
		MemBudgetBytes:   budgetBytes,
		MinResident:      1,
		GovernorInterval: time.Hour, // the test drives reclaim synchronously
	})
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("s%05d", i)
		if err := srv.CreateStream(id, StreamConfig{L: 2, TraceBuffer: -1}); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		if _, err := srv.Push(id, g, true); err != nil {
			t.Fatalf("push %s: %v", id, err)
		}
		if srv.ledger.OverHigh() {
			srv.EnforceBudget()
		}
	}
	if n := srv.NumStreams(); n != total {
		t.Fatalf("registered %d streams, want %d", n, total)
	}
	if peak := srv.PeakAccountedBytes(); peak > budgetBytes {
		t.Fatalf("peak accounted bytes %d exceeded the %d budget", peak, budgetBytes)
	}
	if r, h := srv.stateCounts(); r+h != total || h < total-30 {
		t.Fatalf("resident=%d hibernated=%d of %d: working set not bounded", r, h, total)
	}
	// A hibernated stream from the early cohort still answers.
	if _, err := srv.Report("s00000"); err != nil {
		t.Fatalf("rehydrating an early stream: %v", err)
	}
	if info, _ := srv.StreamInfo("s00000"); info.State != StreamStateResident || info.Ingested != 1 {
		t.Fatalf("rehydrated stream info %+v", info)
	}
}

// TestHibernationChurnStress hammers hibernate/rehydrate against
// concurrent pushes and reads (run it with -race): per-stream push
// order is total, so every stream must end byte-identical to an
// uninterrupted run no matter how often it was hibernated mid-stream.
func TestHibernationChurnStress(t *testing.T) {
	const (
		streams   = 4
		instances = 8
	)
	seq := testSequence(t, instances, 42)
	srv, hs, cl, _ := bootServer(t, Config{DataDir: t.TempDir(), Fsync: false})
	ctx := context.Background()
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("churn%d", i)
		if err := cl.CreateStream(ctx, ids[i], StreamConfig{L: 3}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				srv.HibernateStream(id) // losing a race is fine; no-ops are fine
			} else {
				srv.acquire(id)
			}
			srv.StreamInfo(id)
			srv.AdminStreams()
		}
	}()

	var pushers sync.WaitGroup
	errs := make(chan error, streams)
	for _, id := range ids {
		pushers.Add(1)
		go func(id string) {
			defer pushers.Done()
			for i := 0; i < instances; i++ {
				// The service retries pushes that race a hibernation a few
				// times internally; under this chaos density a push can
				// still lose repeatedly, so keep retrying here.
				for {
					_, err := srv.Push(id, seq.At(i), true)
					if err == nil {
						break
					}
					if !errors.Is(err, errStreamClosed) {
						errs <- fmt.Errorf("%s push %d: %w", id, i, err)
						return
					}
				}
			}
		}(id)
	}
	pushers.Wait()
	close(stop)
	chaos.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := referenceReport(t, instances)
	for _, id := range ids {
		got := httpGetBody(t, hs, "/v1/streams/"+id+"/report")
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %s diverged after hibernation churn:\n%s\nvs\n%s", id, got, want)
		}
	}
}

// TestShutdownAfterHibernation: a stream hibernated mid-session has
// already flushed and closed its WAL, so shutdown has nothing left to
// do for it — and the journal must boot the stream back afterwards.
func TestShutdownAfterHibernation(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Fsync: true, HibernateAfter: time.Hour, GovernorInterval: time.Hour}
	seq := testSequence(t, 4, 13)
	ctx := context.Background()

	srv, hs, cl, stop := bootServer(t, cfg)
	for _, id := range []string{"kept", "slept"} {
		if err := cl.CreateStream(ctx, id, StreamConfig{L: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.Push(ctx, id, seq.At(i), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.HibernateStream("slept"); err != nil {
		t.Fatal(err)
	}
	want := httpGetBody(t, hs, "/v1/streams/kept/report")
	stop()

	// Shutdown again: must stay a clean no-op (governor already joined,
	// residents already drained).
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// Both journals are compacted images a fresh boot can load.
	for _, id := range []string{"kept", "slept"} {
		if st, err := os.Stat(filepath.Join(dataDir, "streams", id, streamWALFile)); err != nil || st.Size() != 0 {
			t.Fatalf("stream %s WAL not compacted at exit: %v, size %d", id, err, st.Size())
		}
	}
	srv2, hs2, _, _ := bootServer(t, cfg)
	if n := srv2.NumStreams(); n != 2 {
		t.Fatalf("recovered %d streams, want 2", n)
	}
	// Governed boot registers hibernated stubs — bounded boot RSS —
	// and the first read rehydrates bit-exactly.
	if r, h := srv2.stateCounts(); r != 0 || h != 2 {
		t.Fatalf("governed boot: resident=%d hibernated=%d, want 0/2", r, h)
	}
	got := httpGetBody(t, hs2, "/v1/streams/kept/report")
	if !bytes.Equal(want, got) {
		t.Fatal("report diverged across hibernate→shutdown→boot→rehydrate")
	}
}

// TestUngovernedBootStaysResident pins the legacy recovery path: with
// durability but no governance knobs, boot restores streams fully
// resident exactly as before this subsystem existed.
func TestUngovernedBootStaysResident(t *testing.T) {
	dataDir := t.TempDir()
	cfg := Config{DataDir: dataDir, Fsync: true}
	seq := testSequence(t, 3, 21)
	ctx := context.Background()

	_, _, cl, stop := bootServer(t, cfg)
	if err := cl.CreateStream(ctx, "s", StreamConfig{L: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Push(ctx, "s", seq.At(0), true); err != nil {
		t.Fatal(err)
	}
	stop()

	srv2, _, _, _ := bootServer(t, cfg)
	if r, h := srv2.stateCounts(); r != 1 || h != 0 {
		t.Fatalf("ungoverned boot: resident=%d hibernated=%d, want 1/0", r, h)
	}
	// Resident recovery still seeds the byte ledger for /streams.
	if srv2.ledger.Bytes("s") <= 0 {
		t.Fatal("recovered resident stream has no accounted footprint")
	}
}

func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
