package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dyngraph/internal/core"
	"dyngraph/internal/graph"
)

// httpGet fetches a path's status and raw bytes.
func httpGet(t *testing.T, hs *httptest.Server, path string) (int, []byte) {
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
	return resp.StatusCode, body
}

// indentedJSON is v as writeJSON encodes it.
func indentedJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportReads reads cadd_report_reads_total for one state.
func reportReads(srv *Server, state string) float64 {
	return srv.metrics.counterValue("cadd_report_reads_total", labels("state", state))
}

// readStream is one stream of the interleaving test and the pushes it
// has accepted: always a prefix of seq.
type readStream struct {
	id   string
	cfg  StreamConfig
	seq  *graph.Sequence
	ids  bool // external-ID mode: pushes are idSnapshot(seq.At(i))
	done int
}

// reference is an uninterrupted detector fed the stream's accepted
// pushes. An external-ID stream's worker builds exactly seq.At(i)
// (idSnapshot interns in index order) and attaches the table's ids.
func (rs *readStream) reference(t *testing.T) *core.OnlineDetector {
	t.Helper()
	det := uninterrupted(t, rs.cfg, rs.seq, rs.done)
	if rs.ids && rs.done > 0 {
		if err := det.SetVertexIDs(idSnapshot(rs.seq.At(rs.done - 1)).IDs); err != nil {
			t.Fatal(err)
		}
	}
	return det
}

func (rs *readStream) report(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteReportJSON(&buf, rs.reference(t).Report()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHibernatedReadInterleavings drives seeded random interleavings of
// pushes, refused pushes, hibernations, reads and governed reboots over
// one stream per embedding regime plus an external-ID stream with a
// bounded window. Every /report, /transitions/{t} and /v1/reports read
// must be byte-identical to an uninterrupted detector fed the accepted
// pushes; only pushes rehydrate, and no read changes which streams are
// resident.
func TestHibernatedReadInterleavings(t *testing.T) {
	const (
		ops = 40
		T   = 24 // instances available per stream
	)
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var streams []*readStream
			for i, rg := range oracleRegimes {
				streams = append(streams, &readStream{id: rg.name, cfg: rg.cfg, seq: reweightStream(48, T, seed*10+int64(i))})
			}
			streams = append(streams, &readStream{id: "ids", cfg: StreamConfig{L: 3, MaxHistory: 4},
				seq: growingTestSequence(t, T, 8, seed), ids: true})
			cfg := Config{DataDir: t.TempDir(), HibernateAfter: time.Hour, GovernorInterval: time.Hour}
			srv, hs, cl, stop := bootServer(t, cfg)
			for _, rs := range streams {
				if err := cl.CreateStream(ctx, rs.id, rs.cfg); err != nil {
					t.Fatal(err)
				}
			}
			// Expected counters since the last boot.
			var rehydrations, residentReads, hibernatedReads float64
			hibernated := func(id string) bool {
				info, ok := srv.StreamInfo(id)
				if !ok {
					t.Fatalf("stream %s vanished", id)
				}
				return info.State == StreamStateHibernated
			}
			countRead := func(id string) {
				if hibernated(id) {
					hibernatedReads++
				} else {
					residentReads++
				}
			}
			// read runs one read and checks that it changed no residency.
			read := func(what string, fn func()) {
				t.Helper()
				r0, h0 := srv.stateCounts()
				fn()
				if r, h := srv.stateCounts(); r != r0 || h != h0 {
					t.Fatalf("%s moved residency from %d/%d to %d/%d", what, r0, h0, r, h)
				}
			}

			for op := 0; op < ops; op++ {
				rs := streams[rng.Intn(len(streams))]
				path := "/v1/streams/" + rs.id
				switch k := rng.Intn(18); {
				case k < 8 && rs.done < T, k == 8 && rs.done == 0:
					// A push; the first push locks the stream's mode, so a
					// refusal needs one before it.
					if hibernated(rs.id) {
						rehydrations++
					}
					var err error
					if rs.ids {
						_, err = cl.PushSnapshot(ctx, rs.id, idSnapshot(rs.seq.At(rs.done)), true)
					} else {
						_, err = cl.Push(ctx, rs.id, rs.seq.At(rs.done), true)
					}
					if err != nil {
						t.Fatalf("op %d: push %d to %s: %v", op, rs.done, rs.id, err)
					}
					rs.done++
				case k == 8:
					// A push in the wrong addressing mode: refused with 422,
					// after its acquire rehydrated the stream.
					if hibernated(rs.id) {
						rehydrations++
					}
					var err error
					if rs.ids {
						_, err = cl.Push(ctx, rs.id, rs.seq.At(0), true)
					} else {
						_, err = cl.PushSnapshot(ctx, rs.id, idSnapshot(rs.seq.At(0)), true)
					}
					var se *StatusError
					if !errors.As(err, &se) || se.StatusCode != http.StatusUnprocessableEntity {
						t.Fatalf("op %d: wrong-mode push to %s: %v, want 422", op, rs.id, err)
					}
				case k < 12:
					if err := srv.HibernateStream(rs.id); err != nil {
						t.Fatalf("op %d: hibernate %s: %v", op, rs.id, err)
					}
				case k == 12:
					stop()
					srv, hs, cl, stop = bootServer(t, cfg)
					if r, h := srv.stateCounts(); r != 0 || h != len(streams) {
						t.Fatalf("op %d: governed reboot left %d resident, %d hibernated", op, r, h)
					}
					rehydrations, residentReads, hibernatedReads = 0, 0, 0
				case k < 15:
					countRead(rs.id)
					read("/report", func() {
						if got := httpGetBody(t, hs, path+"/report"); !bytes.Equal(got, rs.report(t)) {
							t.Fatalf("op %d: %s /report after %d pushes diverged from an uninterrupted detector:\n%s", op, rs.id, rs.done, got)
						}
					})
				case k < 17:
					// A retained transition when there is one, else one
					// outside the window: past its end, or evicted.
					det := rs.reference(t)
					trs := det.Transitions()
					tr, retained := -1, len(trs) > 0 && rng.Intn(3) > 0
					switch {
					case retained:
						tr = trs[rng.Intn(len(trs))].T
					case det.Evicted() > 0 && rng.Intn(2) == 0:
						tr = det.Evicted() - 1
					default:
						tr = det.Evicted() + len(trs)
					}
					countRead(rs.id)
					read("/transitions", func() {
						status, got := httpGet(t, hs, fmt.Sprintf("%s/transitions/%d", path, tr))
						if !retained {
							if status != http.StatusNotFound {
								t.Fatalf("op %d: %s transition %d outside the window: %d %s", op, rs.id, tr, status, got)
							}
							return
						}
						want, _ := det.TransitionReport(tr)
						if status != http.StatusOK || !bytes.Equal(got, indentedJSON(t, want.JSON())) {
							t.Fatalf("op %d: %s transition %d diverged from an uninterrupted detector: %d %s", op, rs.id, tr, status, got)
						}
					})
				default:
					want := make(map[string]json.RawMessage)
					for _, o := range streams {
						countRead(o.id)
						want[o.id] = json.RawMessage(bytes.TrimSpace(o.report(t)))
					}
					read("/v1/reports", func() {
						if got := httpGetBody(t, hs, "/v1/reports"); !bytes.Equal(got, indentedJSON(t, want)) {
							t.Fatalf("op %d: /v1/reports diverged from uninterrupted detectors:\n%s", op, got)
						}
					})
				}
				if got := srv.metrics.counterValue("cadd_rehydrations_total", ""); got != rehydrations {
					t.Fatalf("op %d: cadd_rehydrations_total = %g, want %g (pushes that found their stream hibernated)", op, got, rehydrations)
				}
				if r, h := reportReads(srv, StreamStateResident), reportReads(srv, StreamStateHibernated); r != residentReads || h != hibernatedReads {
					t.Fatalf("op %d: report reads resident=%g hibernated=%g, want %g/%g", op, r, h, residentReads, hibernatedReads)
				}
			}
		})
	}
}

// TestHibernatedBulkReportsRehydrateNothing: /v1/reports over a server
// whose streams are all hibernated is served from their report.json
// files, byte-identical to the resident response: no stream rehydrates
// and every stream stays hibernated. A malformed transition index is
// refused before the stream is looked up.
func TestHibernatedBulkReportsRehydrateNothing(t *testing.T) {
	srv, hs, cl, _ := bootServer(t, Config{DataDir: t.TempDir()})
	ctx := context.Background()
	seq := testSequence(t, 4, 17)
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		if err := cl.CreateStream(ctx, id, StreamConfig{L: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := cl.Push(ctx, id, seq.At(i), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := httpGetBody(t, hs, "/v1/reports")
	for _, id := range ids {
		if err := srv.HibernateStream(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := httpGetBody(t, hs, "/v1/reports"); !bytes.Equal(got, want) {
		t.Fatalf("/v1/reports of hibernated streams differs:\n%s\nvs\n%s", got, want)
	}
	if status, _ := httpGet(t, hs, "/v1/streams/a/transitions/x"); status != http.StatusBadRequest {
		t.Fatalf("malformed transition index: %d, want 400", status)
	}
	if r, h := srv.stateCounts(); r != 0 || h != len(ids) {
		t.Fatalf("resident=%d hibernated=%d after reads, want 0/%d", r, h, len(ids))
	}
	if v := srv.metrics.counterValue("cadd_rehydrations_total", ""); v != 0 {
		t.Fatalf("cadd_rehydrations_total = %g after reads, want 0", v)
	}
	if v := reportReads(srv, StreamStateHibernated); v != float64(len(ids)) {
		t.Fatalf("hibernated report reads = %g, want %d", v, len(ids))
	}
}

// TestHibernateUnwritableReportFallsBack: when report.json cannot be
// replaced — here a directory stands in its place — hibernation still
// succeeds, and each read of the stub falls back to a rehydration that
// serves byte-identical bytes and counts as a resident read.
func TestHibernateUnwritableReportFallsBack(t *testing.T) {
	dataDir := t.TempDir()
	srv, hs, cl, _ := bootServer(t, Config{DataDir: dataDir})
	ctx := context.Background()
	seq := reweightStream(48, 4, 23)
	if err := cl.CreateStream(ctx, "s", oracleRegimes[2].cfg); err != nil {
		t.Fatal(err)
	}
	pushRange(t, cl, "s", seq, 0, 4)
	reads := []string{"/v1/streams/s/report", "/v1/streams/s/transitions/1", "/v1/reports"}
	want := make([][]byte, len(reads))
	for i, path := range reads {
		want[i] = httpGetBody(t, hs, path)
	}
	blocker := reportPath(dataDir, "s")
	if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, path := range reads {
		if err := srv.HibernateStream("s"); err != nil {
			t.Fatalf("hibernate with an unwritable report file: %v", err)
		}
		if got := httpGetBody(t, hs, path); !bytes.Equal(got, want[i]) {
			t.Fatalf("fallback read of %s differs:\n%s\nvs\n%s", path, got, want[i])
		}
		if v := srv.metrics.counterValue("cadd_rehydrations_total", ""); v != float64(i+1) {
			t.Fatalf("cadd_rehydrations_total = %g after fallback read %d, want %d", v, i+1, i+1)
		}
	}
	if r, h := reportReads(srv, StreamStateResident), reportReads(srv, StreamStateHibernated); r != float64(2*len(reads)) || h != 0 {
		t.Fatalf("report reads resident=%g hibernated=%g, want %d/0", r, h, 2*len(reads))
	}
	if st, err := os.Stat(blocker); err != nil || !st.IsDir() {
		t.Fatalf("the directory in report.json's place was replaced: %v", err)
	}
}
