package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dyngraph/internal/cluster"
	"dyngraph/internal/graph"
	"dyngraph/internal/obs"
	"dyngraph/internal/promtext"
	"dyngraph/internal/service"
	"dyngraph/internal/tracecheck"
)

// layerSamples bounds how many pushed bodies the outside layer timings
// replay after the window (evenly spread over the window's pushes).
const layerSamples = 40

// handled is one request as a wrapped handler served it.
type handled struct {
	start   time.Time
	dur     time.Duration
	in, out int64 // request and response body bytes
}

// recorder times the push and report requests a handler serves,
// keyed by request id. It measures the layer from outside: the wrapped
// handler is the layer's own, unchanged.
type recorder struct {
	mu      sync.Mutex
	pushes  map[string]handled
	reports []time.Duration
}

func newRecorder() *recorder { return &recorder{pushes: map[string]handled{}} }

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (rc *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		push := r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/snapshots")
		report := r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/report")
		if !push && !report {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if push {
			rc.pushes[r.Header.Get(obs.RequestIDHeader)] = handled{start: start, dur: d, in: r.ContentLength, out: cw.n}
		} else {
			rc.reports = append(rc.reports, d)
		}
	})
}

func (rc *recorder) push(id string) (handled, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	h, ok := rc.pushes[id]
	return h, ok
}

// inproc is the traced serving stack in this process: service.New
// behind a loopback listener and, for routed workloads,
// cluster.NewRouter in front of it.
type inproc struct {
	srv          *service.Server
	mem          *cluster.Membership
	servers      []*http.Server
	nodeURL      string
	target       *target
	node, router *recorder
}

func startInproc(w workload, dir string, budget int64, traced bool) (*inproc, error) {
	traceBuf := -1
	if traced {
		traceBuf = 16
	}
	ip := &inproc{
		srv: service.New(service.Config{
			DefaultTraceBuffer: traceBuf,
			DataDir:            dir,
			Fsync:              true,
			SnapshotEvery:      w.snapshotEvery,
			MemBudgetBytes:     budget,
		}),
		node:   newRecorder(),
		router: newRecorder(),
	}
	h := ip.srv.Handler()
	if traced {
		h = ip.node.wrap(h)
	}
	var err error
	if ip.nodeURL, err = ip.serve(h); err != nil {
		ip.stop()
		return nil, err
	}
	ip.target = &target{hc: newHTTPClient(w.clients + 2), baseURL: ip.nodeURL}
	if w.routed {
		ip.mem, err = cluster.NewMembership(cluster.MembershipConfig{Peers: []cluster.Peer{{ID: "a", URL: ip.nodeURL}}})
		if err != nil {
			ip.stop()
			return nil, err
		}
		ip.mem.Start()
		rt, err := cluster.NewRouter(cluster.RouterConfig{Membership: ip.mem})
		if err != nil {
			ip.stop()
			return nil, err
		}
		rh := rt.Handler()
		if traced {
			rh = ip.router.wrap(rh)
		}
		if ip.target.baseURL, err = ip.serve(rh); err != nil {
			ip.stop()
			return nil, err
		}
	}
	return ip, nil
}

func (ip *inproc) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	ip.servers = append(ip.servers, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// stop shuts the listeners, then drains the server; it returns once
// every stream worker has exited.
func (ip *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := len(ip.servers) - 1; i >= 0; i-- {
		ip.servers[i].Shutdown(ctx)
	}
	if ip.mem != nil {
		ip.mem.Stop()
	}
	return ip.srv.Shutdown(ctx)
}

// get fetches a node URL path.
func (ip *inproc) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ip.nodeURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := ip.target.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// fetchTrace reads the worker's retained push trace for rec from the
// node's /debug/traces, matching the request id the client sent.
func (ip *inproc) fetchTrace(ctx context.Context, stream string, rec *pushRec) *obs.TraceJSON {
	body, err := ip.get(ctx, "/debug/traces?stream="+url.QueryEscape(stream)+"&trace="+url.QueryEscape(rec.traceID))
	if err != nil {
		return nil
	}
	var entries []struct {
		Traces []obs.TraceJSON `json:"traces"`
	}
	if json.Unmarshal(body, &entries) != nil {
		return nil
	}
	for _, e := range entries {
		for i := range e.Traces {
			if tr := &e.Traces[i]; tr.Name == "push" && tr.Attrs["request_id"] == rec.reqID {
				return tr
			}
		}
	}
	return nil
}

// scrape reads the node's /metrics samples by name (unlabelled series
// only).
func (ip *inproc) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := ip.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	samples, err := promtext.Parse(string(body))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.Labels) == 0 {
			out[s.Name] = s.Value
		}
	}
	return out, nil
}

// inprocRun is one in-process pass over the plan.
type inprocRun struct {
	warm         []*pushRec
	run          pass
	post         []readRec
	node, router *recorder
	before       map[string]float64 // /metrics at the window's start
	after        map[string]float64 // and end
}

func runInproc(ctx context.Context, w workload, p *plan, cfg service.StreamConfig, budget int64, dir string, seconds float64, traced bool) (_ *inprocRun, err error) {
	p.rewind()
	ip, err := startInproc(w, dir, budget, traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := ip.stop(); err == nil {
			err = serr
		}
	}()
	if err := ip.target.createStreams(ctx, p, cfg); err != nil {
		return nil, err
	}
	if err := ip.target.prime(ctx, p); err != nil {
		return nil, err
	}
	res := &inprocRun{node: ip.node, router: ip.router}
	res.warm = ip.target.warm(ctx, p)
	if traced {
		if res.before, err = ip.scrape(ctx); err != nil {
			return nil, err
		}
		ip.target.afterPush = func(rec *pushRec) {
			rec.trace = ip.fetchTrace(ctx, p.streams[rec.stream].id, rec)
		}
	}
	res.run = ip.target.drive(ctx, p, seconds)
	ip.target.afterPush = nil
	if traced {
		if res.after, err = ip.scrape(ctx); err != nil {
			return nil, err
		}
	}
	res.post = postWindowReads(ctx, ip.target, p)
	return res, nil
}

// traced is the per-layer run: the same workload in-process, once with
// tracing off (the overhead baseline) and once traced, each layer timed
// from outside.
func traced(ctx context.Context, w workload, seed int64, seconds float64, work, traceDir string) (*outcome, error) {
	cfg := w.cfg
	cfg.Seed = seed
	p := generate(w, seed, seconds)
	budget, err := memBudget(w, p, cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome(w, seed, 1)
	// The untraced pass only supplies the overhead baseline's p50, so
	// half the window is enough.
	plain, err := runInproc(ctx, w, p, cfg, budget, filepath.Join(work, "untraced"), seconds/2, false)
	if err != nil {
		return nil, err
	}
	tr, err := runInproc(ctx, w, p, cfg, budget, filepath.Join(work, "traced"), seconds, true)
	if err != nil {
		return nil, err
	}
	out.check(cfg, p, tr.warm, tr.run, tr.post, true)
	if out.ref != nil {
		out.set("core.allocs_per_push", out.ref.allocsPer)
	}

	var plainLats, tracedLats []time.Duration
	for _, r := range plain.run.pushes {
		if r.ok {
			plainLats = append(plainLats, r.lat)
		}
	}
	l := newLedger()
	for _, r := range tr.run.pushes {
		if r.ok {
			tracedLats = append(tracedLats, r.lat)
			l.addPush(w, r, tr)
		}
	}
	if err := l.outside(p, append(append([]*pushRec(nil), tr.warm...), tr.run.pushes...), tr.run.pushes); err != nil {
		return nil, err
	}
	for _, rd := range tr.node.reports {
		l.add("service.report_ms", ms(rd))
	}
	l.metricsDelta(tr.before, tr.after)
	l.finish(out, quantile(tracedLats, 0.5)/quantile(plainLats, 0.5))
	out.line("ledger: traced p50 %.3f ms over %d pushes, untraced p50 %.3f ms over %d pushes",
		quantile(tracedLats, 0.5), len(tracedLats), quantile(plainLats, 0.5), len(plainLats))

	path, err := writeChrome(traceDir, w, seed, p, tr)
	if err != nil {
		return nil, err
	}
	out.line("chrome trace: %s", path)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ledger accumulates per-push layer samples; every per-layer metric is
// a mean per push, so the layers add up to the mean push latency.
type ledger struct {
	samples map[string][]float64
	pushes  int // traced pushes with a retained trace
	client  []float64
}

func newLedger() *ledger { return &ledger{samples: map[string][]float64{}} }

func (l *ledger) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// addPush records what the wrapped handlers and the worker's retained
// trace say about one push.
func (l *ledger) addPush(w workload, r *pushRec, tr *inprocRun) {
	l.client = append(l.client, ms(r.lat))
	node, ok := tr.node.push(r.reqID)
	if !ok {
		return
	}
	l.add("service.handler_ms", ms(node.dur))
	if w.routed {
		if rt, ok := tr.router.push(r.reqID); ok {
			l.add("cluster.route_ms", ms(rt.dur-node.dur))
			l.add("cluster.proxy_bytes", float64(rt.in+rt.out))
		}
	} else {
		l.add("cluster.route_ms", 0)
		l.add("cluster.proxy_bytes", 0)
	}
	if r.trace == nil {
		return
	}
	l.pushes++
	root := r.trace
	l.add("push_root_ms", float64(root.DurationNs)/1e6)
	var stages float64
	for _, c := range root.Children {
		d := float64(c.DurationNs) / 1e6
		switch c.Name {
		case "oracle":
			l.add("core.oracle_ms", d)
			l.add("commute.incremental_share", boolNum(c.Attrs["mode"] == "incremental"))
			l.add("commute.base_solves", num(c.Attrs["base_solves"]))
			l.add("commute.verify_skipped_share", boolNum(c.Attrs["verify_skipped"] == true))
			l.add("solver.pcg_iters", num(c.Attrs["pcg_iterations"]))
			l.add("solver.block_iters", num(c.Attrs["block_iterations"]))
		case "score":
			l.add("core.score_ms", d)
			l.add("core.scored_pairs", num(c.Attrs["scored_pairs"]))
		case "delta_select":
			l.add("core.delta_select_ms", d)
		case "threshold":
			l.add("core.threshold_ms", d)
		case "journal":
			l.add("journal_ms", d)
			compacted := 0.0
			for _, j := range c.Children {
				switch j.Name {
				case "wal_append":
					l.add("wal.append_ms", float64(j.DurationNs)/1e6)
					l.add("wal.frame_bytes", num(j.Attrs["bytes"]))
				case "snapshot_compact":
					compacted = 1
					l.add("wal.compact_ms", float64(j.DurationNs)/1e6)
				}
			}
			l.add("wal.compactions_per_push", compacted)
			continue
		}
		stages += d
	}
	l.add("core.push_ms", stages)
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// outside times the layers' public functions on the bodies the window
// pushed: the JSON decode into service.Snapshot, the raw graph build or
// the vertex-table resolve, the snapshot diff against the stream's
// previous snapshot, and the ack's response encoding. all holds every
// acknowledged push (to find each one's predecessor), window the ones
// to sample.
func (l *ledger) outside(p *plan, all, window []*pushRec) error {
	prev := map[[2]int]int{} // (stream, instance) → snapshot index
	for s := range p.streams {
		prev[[2]int{s, 0}] = 0 // the priming push
	}
	for _, r := range all {
		if r.ok {
			prev[[2]int{r.stream, r.ack.Instance}] = r.snap
		}
	}
	tables := make([]*graph.VertexTable, len(p.streams))
	for s, sd := range p.streams {
		if tables[s] = sd.table(); tables[s] != nil {
			// The daemon's table already holds the fixed id set from the
			// stream's first snapshot; every later resolve only looks ids up.
			if _, err := sd.graphOf(0, tables[s]); err != nil {
				return err
			}
		}
	}
	var picked []*pushRec
	for _, r := range window {
		if r.ok {
			picked = append(picked, r)
		}
	}
	if len(picked) > layerSamples {
		step := float64(len(picked)) / layerSamples
		thin := make([]*pushRec, layerSamples)
		for i := range thin {
			thin[i] = picked[int(float64(i)*step)]
		}
		picked = thin
	}
	var ms0, ms1 runtime.MemStats
	for _, r := range picked {
		sd := p.streams[r.stream]
		body := sd.snaps[r.snap].bytes()
		var snap service.Snapshot
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		err := json.Unmarshal(body, &snap)
		decode := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("decoding a pushed body: %w", err)
		}
		l.add("service.decode_ms", ms(decode))
		l.add("service.decode_allocs", float64(ms1.Mallocs-ms0.Mallocs))

		var g *graph.Graph
		if vt := tables[r.stream]; vt != nil {
			start = time.Now()
			edges := make([]graph.Edge, len(snap.Edges))
			for i, e := range snap.Edges {
				edges[i] = graph.Edge{I: e.I, J: e.J, W: e.W}
			}
			g, err = resolve(snap.IDs, edges, vt)
			l.add("graph.resolve_ms", ms(time.Since(start)))
			l.add("graph.build_ms", 0)
		} else {
			start = time.Now()
			g, err = snap.Graph()
			l.add("graph.build_ms", ms(time.Since(start)))
			l.add("graph.resolve_ms", 0)
		}
		if err != nil {
			return err
		}
		if ps, ok := prev[[2]int{r.stream, r.ack.Instance - 1}]; ok {
			pg, err := sd.graphOf(ps, tables[r.stream])
			if err != nil {
				return err
			}
			start = time.Now()
			_, err = graph.DiffSupport(pg, g)
			l.add("graph.diff_ms", ms(time.Since(start)))
			if err != nil {
				return err
			}
		}

		var buf bytes.Buffer
		start = time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(r.ack)
		l.add("service.response_ms", ms(time.Since(start)))
		if err != nil {
			return err
		}
	}
	return nil
}

// metricsDelta turns the node's hibernation and budget series over the
// window into per-push figures.
func (l *ledger) metricsDelta(before, after map[string]float64) {
	pushes := float64(len(l.client))
	n := after["cadd_rehydrate_seconds_count"] - before["cadd_rehydrate_seconds_count"]
	sum := after["cadd_rehydrate_seconds_sum"] - before["cadd_rehydrate_seconds_sum"]
	rehydrate := 0.0
	if n > 0 {
		rehydrate = sum / n * 1000
	}
	l.add("hibernate.rehydrate_ms", rehydrate)
	if pushes > 0 {
		l.add("hibernate.rehydrations_per_push", (after["cadd_rehydrations_total"]-before["cadd_rehydrations_total"])/pushes)
	}
	l.add("budget.resident_bytes", after["cadd_resident_bytes"])
}

// finish sets every per-layer metric from the samples and prints the
// ledger: the client-observed mean push split into its layers.
func (l *ledger) finish(out *outcome, overhead float64) {
	m := func(name string) float64 { return mean(l.samples[name]) }
	client := mean(l.client)
	decode, build, resolveMs, response := m("service.decode_ms"), m("graph.build_ms"), m("graph.resolve_ms"), m("service.response_ms")
	root, route := m("push_root_ms"), m("cluster.route_ms")
	wait := m("service.handler_ms") - decode - build - resolveMs - root - response
	for _, d := range layerMetrics {
		if s, ok := l.samples[d.name]; ok {
			out.set(d.name, mean(s))
		}
	}
	if _, ok := l.samples["wal.compact_ms"]; !ok {
		out.set("wal.compact_ms", 0)
	}
	out.set("service.wait_ms", wait)
	attributed := route + decode + build + resolveMs + root + response
	if client > 0 {
		out.set("ledger.coverage", attributed/client)
	}
	out.set("ledger.trace_overhead", overhead)
	out.note("ledger.coverage", "measured layers / mean client push; excludes the wait residual")
	out.note("ledger.trace_overhead", "traced p50 / untraced p50, both in-process")
	out.line("ledger: %d traced pushes, mean client push %.3f ms =", l.pushes, client)
	rows := []struct {
		name string
		v    float64
	}{
		{"cluster.route", route}, {"service.decode", decode}, {"graph.build", build}, {"graph.resolve", resolveMs},
		{"service.wait (residual)", wait},
		{"core.oracle", m("core.oracle_ms")}, {"core.score", m("core.score_ms")},
		{"core.delta_select", m("core.delta_select_ms")}, {"core.threshold", m("core.threshold_ms")},
		{"wal (journal span)", m("journal_ms")}, {"service.response", response},
		{"outside handlers", client - route - m("service.handler_ms")},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	for _, r := range rows {
		share := 0.0
		if client > 0 {
			share = r.v / client * 100
		}
		out.line("ledger:   %-24s %10.3f ms %6.1f%%", r.name, r.v, share)
	}
}

// writeChrome writes the traced run as one Chrome trace: client push
// spans, the router's and node's handler spans, and each push's worker
// trace nested under its node handler span. The document must pass
// tracecheck before it is written.
func writeChrome(dir string, w workload, seed int64, p *plan, tr *inprocRun) (string, error) {
	var client, router, node []*obs.Span
	for _, r := range tr.run.pushes {
		if !r.ok {
			continue
		}
		attrs := map[string]any{"stream": p.streams[r.stream].id, "request_id": r.reqID}
		client = append(client, obs.SpanFromJSON(obs.TraceJSON{Name: "client_push",
			StartUnixNs: r.start.UnixNano(), DurationNs: r.lat.Nanoseconds(), Attrs: attrs}))
		if rt, ok := tr.router.push(r.reqID); ok {
			router = append(router, obs.SpanFromJSON(obs.TraceJSON{Name: "router_handler",
				StartUnixNs: rt.start.UnixNano(), DurationNs: rt.dur.Nanoseconds(), Attrs: attrs}))
		}
		if h, ok := tr.node.push(r.reqID); ok {
			span := obs.TraceJSON{Name: "node_handler", StartUnixNs: h.start.UnixNano(), DurationNs: h.dur.Nanoseconds(), Attrs: attrs}
			if r.trace != nil {
				span.Children = []obs.TraceJSON{*r.trace}
			}
			node = append(node, obs.SpanFromJSON(span))
		}
	}
	nodes := []obs.NodeTraces{{Node: "client", Roots: client}, {Node: "node", Roots: node}}
	if len(router) > 0 {
		nodes = append(nodes, obs.NodeTraces{Node: "router", Roots: router})
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeNodes(&buf, nodes); err != nil {
		return "", err
	}
	if _, err := tracecheck.CheckBytes(buf.Bytes()); err != nil {
		return "", fmt.Errorf("chrome trace fails tracecheck: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}
