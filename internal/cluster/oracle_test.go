package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dyngraph/internal/graph"
	"dyngraph/internal/service"
	"dyngraph/internal/wal"
)

// promoteRegimes are the embedding regimes whose previous oracle a
// stream snapshot carries; exact_cutoff 1 keeps every instance out of
// the exact regime.
var promoteRegimes = []struct {
	name string
	cfg  service.StreamConfig
}{
	{"per_instance", service.StreamConfig{L: 2, K: 8, Seed: 7, ExactCutoff: 1}},
	{"shared", service.StreamConfig{L: 2, K: 8, Seed: 7, ExactCutoff: 1, SharedProjections: true}},
	{"shared_incremental", service.StreamConfig{L: 2, K: 8, Seed: 7, ExactCutoff: 1,
		SharedProjections: true, IncrementalUpdates: true}},
}

// reweightStream is a sparse (tree-preconditioned), fixed-support
// sequence of reweights: a ring with chords, one edge reweighted on even
// steps and every edge on odd ones. Shared-projection streams keep
// patching their first spanning forest across it.
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

// referenceReport is the /report of an uninterrupted, non-durable node
// that consumed the whole sequence.
func referenceReport(t *testing.T, cfg service.StreamConfig, seq *graph.Sequence) []byte {
	t.Helper()
	ctx := context.Background()
	ref := service.New(service.Config{})
	defer ref.Shutdown(ctx)
	hs := httptest.NewServer(ref.Handler())
	defer hs.Close()
	cl := service.NewClient(hs.URL, nil)
	if err := cl.CreateStream(ctx, "s", cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seq.T(); i++ {
		if _, err := cl.Push(ctx, "s", seq.At(i), true); err != nil {
			t.Fatal(err)
		}
	}
	_, _, body := getRaw(t, hs.URL+"/v1/streams/s/report")
	return body
}

// TestReplicationClosePromoteOracleRegimes: close → recover → promote.
// The primary's clean shutdown ships a final snapshot that carries the
// previous oracle; the follower promotes the stream from it, and pushes
// continued there produce a /report byte-identical to an uninterrupted
// node, without rebuilding the oracle, in every embedding regime.
func TestReplicationClosePromoteOracleRegimes(t *testing.T) {
	const split = 7
	seq := reweightStream(48, 12, 23)
	for _, rg := range promoteRegimes {
		t.Run(rg.name, func(t *testing.T) {
			ctx := context.Background()
			primaryDir, followerDir := t.TempDir(), t.TempDir()
			follower := service.New(service.Config{DataDir: followerDir, NodeID: "cadd-b"})
			defer follower.Shutdown(ctx)
			replica, err := NewReplica(ReplicaConfig{DataDir: followerDir, Promote: follower.RecoverStream})
			if err != nil {
				t.Fatal(err)
			}
			defer replica.Close()
			fmux := http.NewServeMux()
			fmux.Handle("/v1/replica/", replica.Handler())
			fmux.Handle("/", follower.Handler())
			fsrv := httptest.NewServer(fmux)
			defer fsrv.Close()

			repl := NewReplicator(fsrv.URL, nil, nil)
			defer repl.Close()
			primary := service.New(service.Config{DataDir: primaryDir, NodeID: "cadd-a", SnapshotEvery: 4, Replication: repl})
			psrv := httptest.NewServer(primary.Handler())
			pcl := service.NewClient(psrv.URL, nil)
			if err := pcl.CreateStream(ctx, "s", rg.cfg); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < split; i++ {
				if _, err := pcl.Push(ctx, "s", seq.At(i), true); err != nil {
					t.Fatalf("push %d: %v", i, err)
				}
			}
			// Close: the worker's exit writes and ships a final snapshot.
			psrv.Close()
			if err := primary.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			flushCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := repl.Flush(flushCtx); err != nil {
				t.Fatal(err)
			}
			rdir := filepath.Join(followerDir, "replica", "s")
			if st, err := os.Stat(filepath.Join(rdir, "wal.log")); err != nil || st.Size() != 0 {
				t.Fatalf("replica log after the primary's clean shutdown: %v, want an empty log", err)
			}
			payload, err := wal.ReadSnapshotFile(filepath.Join(rdir, "snapshot.bin"))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := wal.DecodeSnapshot(payload)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Instances != split || snap.Oracle == nil {
				t.Fatalf("replicated snapshot at %d instances, oracle block present = %v", snap.Instances, snap.Oracle != nil)
			}

			resp, err := http.Post(fsrv.URL+"/v1/replica/promote", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("promote: status %d body %s", resp.StatusCode, body)
			}
			fcl := service.NewClient(fsrv.URL, nil)
			for i := split; i < seq.T(); i++ {
				if _, err := fcl.PushAt(ctx, "s", seq.At(i), int64(i), true); err != nil {
					t.Fatalf("push %d on the promoted follower: %v", i, err)
				}
			}
			_, _, got := getRaw(t, fsrv.URL+"/v1/streams/s/report")
			if !bytes.Equal(got, referenceReport(t, rg.cfg, seq)) {
				t.Fatal("promoted stream's report differs from an uninterrupted node's")
			}
			_, _, metrics := getRaw(t, fsrv.URL+"/metrics")
			if series := fmt.Sprintf("cadd_oracle_rebuilds_total{stream=%q}", "s"); strings.Contains(string(metrics), series) {
				t.Fatalf("promoted stream rebuilt its oracle (%s exported)", series)
			}
		})
	}
}
