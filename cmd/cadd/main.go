// Command cadd is the streaming anomaly-detection daemon: a
// long-running HTTP server that maintains many independent named
// detection streams, each wrapping an online CAD detector behind a
// bounded ingest queue.
//
// Usage:
//
//	cadd [-addr :8470] [-queue 64] [-max-streams 1024]
//	     [-shutdown-timeout 30s] [-pprof 127.0.0.1:0]
//	     [-log-format text|json] [-log-level info] [-trace-buffer 64]
//	     [-slo-push-p99 0.25] [-version]
//	     [-data-dir /var/lib/cadd] [-fsync always|off] [-snapshot-every 64]
//	     [-mem-budget 256MiB] [-hibernate-after 10m] [-min-resident 1]
//	     [-cluster-peers a=http://h1:8470,b=http://h2:8470] [-node-id a]
//	     [-replicate-to http://standby:8470] [-health-interval 2s]
//	     [-route-redirect]
//
// API (all JSON; see internal/service for the wire types):
//
//	PUT    /v1/streams/{id}                 create a stream
//	GET    /v1/streams                      list streams
//	GET    /v1/streams/{id}                 stream status
//	DELETE /v1/streams/{id}                 drop a stream
//	POST   /v1/streams/{id}/snapshots       ingest one graph instance
//	                                        (?sync=1 waits for scoring;
//	                                        429 = queue full, retry later)
//	GET    /v1/streams/{id}/report          re-thresholded history
//	GET    /v1/streams/{id}/transitions/{t} one transition's anomalies
//	GET    /healthz                         liveness (?verbose=1 = /statusz)
//	GET    /statusz                         operational snapshot: build,
//	                                        uptime, residency, SLO burn
//	                                        rates, runtime stats, slowest
//	                                        recent pushes
//	GET    /metrics                         Prometheus text format
//	GET    /streams                         residency state + resident
//	                                        bytes per stream (admin)
//	GET    /debug/traces                    retained push traces (JSON;
//	                                        ?stream= filters, ?trace= picks
//	                                        one distributed trace,
//	                                        ?format=chrome emits Chrome
//	                                        trace_event JSON for
//	                                        chrome://tracing / Perfetto)
//
// Structured logs (stream lifecycle, push errors, slow pushes) go to
// stderr; -log-format json switches them to one-JSON-object-per-line
// for log shippers, -log-level debug adds per-request lines. Every
// request carries an id (X-Request-ID, minted when absent) that appears
// in the response header, the logs and the push trace.
//
// -trace-buffer sets the per-stream trace retention behind
// /debug/traces (0 disables tracing for streams that don't set their
// own trace_buffer). Pushes carry a distributed trace context in the
// X-Cadd-Trace header (W3C-traceparent shaped) — minted here when the
// caller sends none, continued when the router or a client does — so a
// routed cluster push yields one cross-node trace, stitched by the
// router's /debug/traces?trace=<id>. See docs/OBSERVABILITY.md.
//
// -slo-push-p99 sets a default per-stream push-latency SLO objective
// in seconds (at most 1% of pushes may exceed it); burn rates over 5m
// and 1h windows are exported as cadd_slo_push_burn_rate and in
// /statusz. Streams override with slo_push_seconds (negative opts
// out). -version prints the build stamp and exits.
//
// On SIGINT/SIGTERM the server stops accepting requests, drains every
// stream's queue (bounded by -shutdown-timeout), and exits — accepted
// snapshots are never silently dropped.
//
// -data-dir makes streams durable: every accepted push is journaled to
// a per-stream write-ahead log under <data-dir>/streams/<id>/ and
// compacted into a snapshot every -snapshot-every pushes, and on the
// next boot the daemon replays the journals before it starts
// listening, so a kill -9 loses at most the pushes that were never
// acknowledged. -fsync off trades that guarantee for latency by
// leaving WAL writes in the page cache. See docs/DURABILITY.md for
// the file formats and recovery semantics.
//
// -mem-budget caps the bytes of detector state resident in memory
// across all streams (accepts 12345, 64KiB, 256MiB, 2GiB, or the SI
// forms KB/MB/GB); past 90% of the budget the daemon hibernates the
// least-recently-used streams — journals their state to -data-dir and
// drops it from memory — until usage falls under 75%. -hibernate-after
// additionally hibernates any stream idle for that long regardless of
// pressure. A push on a hibernated stream transparently rehydrates it
// from its journal; reads are served from the report it wrote when it
// hibernated. Both flags require -data-dir;
// -min-resident streams (default 1) are always kept resident. The
// /streams endpoint reports each stream's residency state and
// estimated bytes. See docs/MEMORY.md.
//
// Cluster mode (see docs/CLUSTER.md): -cluster-peers names the static
// member set as id=url pairs. With -node-id naming this process, cadd
// runs as a cluster node — it serves the streams a shared consistent-
// hash ring assigns it and proxies misrouted stream requests one hop
// to their owner. With -cluster-peers but no -node-id, cadd runs as a
// stateless router: stream-scoped calls forward to the owner (or
// redirect with -route-redirect), cluster-wide reads (/v1/streams,
// /streams, /v1/reports, /debug/traces, /metrics) scatter to every
// healthy node and merge. -health-interval tunes the peer liveness
// probe period. -replicate-to streams every journal artifact (WAL
// frames, snapshots, configs) to a standby cadd's /v1/replica API so
// a byte-identical warm copy is ready for promotion; it requires
// -data-dir, and any durable cadd exposes the /v1/replica surface to
// accept such shipments.
//
// -pprof serves the net/http/pprof profiling endpoints (/debug/pprof/)
// on a dedicated listener, kept off the public API address so profiling
// is never exposed by accident. It is off by default; pass e.g.
// -pprof 127.0.0.1:6060 (or :0 for a free port — the bound address is
// announced on stdout) to profile a live daemon:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// Example session:
//
//	cadd -addr :8470 &
//	curl -X PUT localhost:8470/v1/streams/emails -d '{"l":5}'
//	datagen -dataset enron -out /tmp/enron.txt   # then replay months
//	curl localhost:8470/v1/streams/emails/report
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyngraph/internal/buildinfo"
	"dyngraph/internal/cluster"
	"dyngraph/internal/obs"
	"dyngraph/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole daemon behind flag plumbing, factored out so tests
// can drive a full boot/serve/shutdown cycle with a cancellable
// context and in-memory streams.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cadd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr            = fs.String("addr", ":8470", "listen address (host:port; :0 picks a free port)")
		queue           = fs.Int("queue", 64, "default per-stream ingest queue bound")
		maxStreams      = fs.Int("max-streams", 1024, "maximum concurrently live streams")
		shutdownTimeout = fs.Duration("shutdown-timeout", 30*time.Second, "drain budget after SIGTERM")
		pprofAddr       = fs.String("pprof", "", "serve net/http/pprof on this dedicated address (off when empty; :0 picks a free port)")
		logFormat       = fs.String("log-format", "text", "structured log encoding: text or json")
		logLevel        = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		traceBuffer     = fs.Int("trace-buffer", 64, "per-stream push-trace retention for /debug/traces (0 disables)")
		dataDir         = fs.String("data-dir", "", "journal streams to this directory and recover them at boot (off when empty)")
		fsync           = fs.String("fsync", "always", "WAL fsync policy: always (each push durable on ack) or off (page cache only)")
		snapshotEvery   = fs.Int("snapshot-every", 64, "journaled pushes between compact snapshots")
		memBudget       = fs.String("mem-budget", "", "resident detector-state budget across streams, e.g. 256MiB (off when empty; needs -data-dir)")
		hibernateAfter  = fs.Duration("hibernate-after", 0, "hibernate streams idle this long (off when 0; needs -data-dir)")
		minResident     = fs.Int("min-resident", 1, "streams never hibernated by the governor")
		clusterPeers    = fs.String("cluster-peers", "", "static cluster membership as id=url pairs, comma separated (off when empty)")
		nodeID          = fs.String("node-id", "", "this process's id in -cluster-peers; with -cluster-peers but no -node-id, cadd runs as a stateless router")
		replicateTo     = fs.String("replicate-to", "", "ship every journal artifact to this standby cadd's /v1/replica API (needs -data-dir)")
		healthInterval  = fs.Duration("health-interval", 2*time.Second, "cluster peer liveness probe period")
		routeRedirect   = fs.Bool("route-redirect", false, "router mode: answer stream calls with 307 to the owner instead of proxying")
		sloPushP99      = fs.Float64("slo-push-p99", 0, "default per-stream push-latency SLO objective in seconds, p99 (off when 0)")
		showVersion     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintf(stdout, "cadd %s %s\n", buildinfo.Version, buildinfo.GoVersion())
		return 0
	}
	budgetBytes, err := parseByteSize(*memBudget)
	if err != nil {
		fmt.Fprintf(stderr, "cadd: bad -mem-budget %q: %v\n", *memBudget, err)
		return 2
	}
	if (budgetBytes > 0 || *hibernateAfter > 0) && *dataDir == "" {
		fmt.Fprintln(stderr, "cadd: -mem-budget and -hibernate-after need -data-dir (hibernation journals state to disk)")
		return 2
	}
	var doFsync bool
	switch *fsync {
	case "always":
		doFsync = true
	case "off":
		doFsync = false
	default:
		fmt.Fprintf(stderr, "cadd: bad -fsync %q (want always or off)\n", *fsync)
		return 2
	}

	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		return 2
	}

	if *nodeID != "" && *clusterPeers == "" {
		fmt.Fprintln(stderr, "cadd: -node-id needs -cluster-peers")
		return 2
	}
	if *replicateTo != "" && *dataDir == "" {
		fmt.Fprintln(stderr, "cadd: -replicate-to needs -data-dir (replication ships the journal)")
		return 2
	}
	if *clusterPeers != "" && *nodeID == "" {
		// Router mode: no detector state at all, just placement,
		// forwarding and scatter-gather over the peers.
		return runRouter(ctx, stdout, stderr, logger, *addr, *clusterPeers, *healthInterval, *routeRedirect, *shutdownTimeout)
	}

	// Cluster-node plumbing, built before the server so its hooks can be
	// wired into the service config.
	var (
		mem            *cluster.Membership
		nodeProxy      *cluster.NodeProxy
		replicator     *cluster.Replicator
		extraMetrics   []func(io.Writer)
		statusSections []service.StatusSection
		replSink       service.ReplicationSink
	)
	// Go runtime telemetry: a background sampler feeding the
	// cadd_go_* series and the /statusz runtime section; the push hot
	// path never touches it.
	sampler := obs.NewRuntimeSampler(0)
	sampler.Start()
	defer sampler.Stop()
	extraMetrics = append(extraMetrics, sampler.WriteMetrics)
	statusSections = append(statusSections, service.StatusSection{
		Name: "runtime", Value: func() any { return sampler.Stats() },
	})
	if *replicateTo != "" {
		replicator = cluster.NewReplicator(*replicateTo, nil, logger)
		replSink = replicator
		extraMetrics = append(extraMetrics, replicator.WriteMetrics)
		statusSections = append(statusSections, service.StatusSection{
			Name: "replication", Value: func() any { return replicator.Status() },
		})
	}
	if *clusterPeers != "" {
		peers, err := cluster.ParsePeers(*clusterPeers)
		if err != nil {
			fmt.Fprintln(stderr, "cadd:", err)
			return 2
		}
		mem, err = cluster.NewMembership(cluster.MembershipConfig{
			Peers:          peers,
			HealthInterval: *healthInterval,
			Logger:         logger,
		})
		if err != nil {
			fmt.Fprintln(stderr, "cadd:", err)
			return 2
		}
		nodeProxy, err = cluster.NewNodeProxy(*nodeID, mem, nil, logger)
		if err != nil {
			fmt.Fprintln(stderr, "cadd:", err)
			return 2
		}
		extraMetrics = append(extraMetrics, mem.WriteMetrics, nodeProxy.WriteMetrics)
		statusSections = append(statusSections, service.StatusSection{
			Name: "peers", Value: func() any { return mem.Health() },
		})
	}

	defaultTrace := *traceBuffer
	if defaultTrace <= 0 {
		defaultTrace = -1 // service: negative disables, 0 means default
	}
	srv := service.New(service.Config{
		DefaultQueueSize:   *queue,
		MaxStreams:         *maxStreams,
		DefaultTraceBuffer: defaultTrace,
		Logger:             logger,
		DataDir:            *dataDir,
		Fsync:              doFsync,
		SnapshotEvery:      *snapshotEvery,
		MemBudgetBytes:     budgetBytes,
		HibernateAfter:     *hibernateAfter,
		MinResident:        *minResident,
		NodeID:             *nodeID,
		Replication:        replSink,
		ExtraMetrics:       extraMetrics,
		SLOPushP99:         *sloPushP99,
		StatusSections:     statusSections,
	})
	if *dataDir != "" {
		// Recover journaled streams before the listener opens, so the
		// first request already sees the restored state.
		logger.Info("recovering streams", "data_dir", *dataDir)
		if err := srv.Recover(); err != nil {
			fmt.Fprintln(stderr, "cadd:", err)
			return 1
		}
		logger.Info("recovery complete", "streams", srv.NumStreams())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "cadd: listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(),
		"queue", *queue, "max_streams", *maxStreams, "trace_buffer", *traceBuffer)
	if budgetBytes > 0 || *hibernateAfter > 0 {
		logger.Info("memory governance on", "mem_budget_bytes", budgetBytes,
			"hibernate_after", hibernateAfter.String(), "min_resident", *minResident)
	}

	// Profiling stays on its own mux and listener: the public handler
	// never gains /debug/pprof/, even with the flag set.
	var ps *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "cadd: pprof:", err)
			return 1
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps = &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		fmt.Fprintf(stdout, "cadd: pprof on %s\n", pln.Addr())
		go func() {
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stderr, "cadd: pprof:", err)
			}
		}()
	}

	// Handler assembly, innermost out: the service API, the cluster
	// ownership proxy around it, and the replica surface beside it (any
	// durable cadd can accept WAL shipments and be promoted).
	handler := srv.Handler()
	if nodeProxy != nil {
		handler = nodeProxy.Wrap(handler)
	}
	var replica *cluster.Replica
	if *dataDir != "" {
		replica, err = cluster.NewReplica(cluster.ReplicaConfig{
			DataDir: *dataDir,
			Promote: srv.RecoverStream,
			Logger:  logger,
		})
		if err != nil {
			ln.Close()
			fmt.Fprintln(stderr, "cadd:", err)
			return 1
		}
		outer := http.NewServeMux()
		outer.Handle("/v1/replica/", replica.Handler())
		outer.Handle("/", handler)
		handler = outer
	}
	if mem != nil {
		mem.Start()
		logger.Info("cluster node up", "node_id", *nodeID, "peers", len(mem.Peers()),
			"health_interval", healthInterval.String())
	}
	if replicator != nil {
		logger.Info("replicating journal", "target", *replicateTo)
	}

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "cadd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop taking requests first, then drain every
	// stream's queue so accepted snapshots are scored before exit.
	fmt.Fprintln(stdout, "cadd: shutting down, draining streams")
	logger.Info("shutting down", "drain_budget", shutdownTimeout.String())
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "cadd: http shutdown:", err)
		code = 1
	}
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		code = 1
	}
	if replicator != nil {
		// Drain the replication queue after the streams drain, so the
		// standby holds everything this process acknowledged.
		if err := replicator.Flush(sctx); err != nil {
			fmt.Fprintln(stderr, "cadd:", err)
			code = 1
		}
		replicator.Close()
	}
	if mem != nil {
		mem.Stop()
	}
	if replica != nil {
		replica.Close()
	}
	if ps != nil {
		// Best-effort: an aborted in-flight profile is not a failed drain.
		if err := ps.Shutdown(sctx); err != nil {
			fmt.Fprintln(stderr, "cadd: pprof shutdown:", err)
		}
	}
	fmt.Fprintln(stdout, "cadd: bye")
	return code
}

// runRouter serves the stateless cluster front door: same listen and
// shutdown discipline as a node, none of the detector machinery.
func runRouter(ctx context.Context, stdout, stderr io.Writer, logger *slog.Logger,
	addr, clusterPeers string, healthInterval time.Duration, redirect bool,
	shutdownTimeout time.Duration) int {
	peers, err := cluster.ParsePeers(clusterPeers)
	if err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		return 2
	}
	mem, err := cluster.NewMembership(cluster.MembershipConfig{
		Peers:          peers,
		HealthInterval: healthInterval,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		return 2
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Membership: mem,
		Redirect:   redirect,
		Logger:     logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		return 2
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, "cadd:", err)
		return 1
	}
	mem.Start()
	fmt.Fprintf(stdout, "cadd: router listening on %s\n", ln.Addr())
	logger.Info("router listening", "addr", ln.Addr().String(), "peers", len(peers),
		"redirect", redirect, "health_interval", healthInterval.String())

	hs := &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "cadd:", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "cadd: router shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "cadd: http shutdown:", err)
		code = 1
	}
	mem.Stop()
	fmt.Fprintln(stdout, "cadd: bye")
	return code
}

// parseByteSize parses a human byte size for -mem-budget: a bare
// integer is bytes; KiB/MiB/GiB/TiB are binary multiples and
// KB/MB/GB/TB decimal ones, matched case-insensitively. "" means
// unlimited and parses to 0.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
		{"B", 1},
	}
	mult := int64(1)
	num := s
	for _, u := range units {
		if len(s) > len(u.suffix) && strings.EqualFold(s[len(s)-len(u.suffix):], u.suffix) {
			mult, num = u.mult, strings.TrimSpace(s[:len(s)-len(u.suffix)])
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("want an integer with an optional KiB/MiB/GiB/TiB or KB/MB/GB/TB suffix")
	}
	if n < 0 {
		return 0, fmt.Errorf("must not be negative")
	}
	if n > 0 && n > (1<<62)/mult {
		return 0, fmt.Errorf("overflows")
	}
	return n * mult, nil
}

// newLogger builds the daemon's slog.Logger from the -log-format and
// -log-level flags.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
