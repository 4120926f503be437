package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dyngraph/internal/service"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (the self-test holds them equal).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the daemon sees, from the untraced
// run (--trace 0).
var endToEndMetrics = []metricDef{
	{"push_p50_ms", "ms", "lower"},
	{"push_p90_ms", "ms", "lower"},
	{"pushes_per_s", "1/s", "higher"},
	{"report_p50_ms", "ms", "lower"},
	{"push_bytes", "bytes", "lower"},
	{"server_cpu_ms_per_push", "ms", "lower"},
	{"server_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics are per-layer means per push from the traced in-process
// run (--trace 1).
var layerMetrics = []metricDef{
	{"cluster.route_ms", "ms", "lower"},
	{"cluster.proxy_bytes", "bytes", "lower"},
	{"service.decode_ms", "ms", "lower"},
	{"service.decode_allocs", "count", "lower"},
	{"service.handler_ms", "ms", "lower"},
	{"service.wait_ms", "ms", "lower"},
	{"service.response_ms", "ms", "lower"},
	{"service.report_ms", "ms", "lower"},
	{"graph.build_ms", "ms", "lower"},
	{"graph.resolve_ms", "ms", "lower"},
	{"graph.diff_ms", "ms", "lower"},
	{"core.push_ms", "ms", "lower"},
	{"core.oracle_ms", "ms", "lower"},
	{"core.score_ms", "ms", "lower"},
	{"core.scored_pairs", "count", "lower"},
	{"core.delta_select_ms", "ms", "lower"},
	{"core.threshold_ms", "ms", "lower"},
	{"core.allocs_per_push", "count", "lower"},
	{"commute.incremental_share", "ratio", "higher"},
	{"commute.base_solves", "count", "lower"},
	{"commute.verify_skipped_share", "ratio", "higher"},
	{"solver.pcg_iters", "count", "lower"},
	{"solver.block_iters", "count", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.frame_bytes", "bytes", "lower"},
	{"wal.compact_ms", "ms", "lower"},
	{"wal.compactions_per_push", "ratio", "lower"},
	{"hibernate.rehydrate_ms", "ms", "lower"},
	{"hibernate.rehydrations_per_push", "ratio", "lower"},
	{"budget.resident_bytes", "bytes", "lower"},
	{"ledger.coverage", "ratio", "higher"},
	{"ledger.trace_overhead", "ratio", "lower"},
}

// outcome is one run's measurements and verdict.
type outcome struct {
	w      workload
	seed   int64
	trace  int
	phases []phase
	values map[string]float64
	notes  map[string]string
	extra  []string // free-form report lines (the traced ledger)
	// attempted and failed count every request the run sent plus every
	// gate comparison; failed/attempted is the run's fail_ratio.
	attempted, failed int
	// The plan, each stream's last served report and the replay's
	// verdict, kept for the self-test's tamper check.
	plan    *plan
	served  map[string][]byte
	ref     *reference
	gateErr error // the replay could not run: the gate failed
}

func newOutcome(w workload, seed int64, trace int) *outcome {
	return &outcome{w: w, seed: seed, trace: trace, values: map[string]float64{}, notes: map[string]string{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }
func (o *outcome) note(name, text string)     { o.notes[name] = text }
func (o *outcome) addPhase(p phase)           { o.phases = append(o.phases, p) }
func (o *outcome) line(format string, args ...any) {
	o.extra = append(o.extra, fmt.Sprintf(format, args...))
}

// check runs the correctness gate: every push and read is counted, the
// snapshots the daemon acknowledged are replayed in-process, every ack
// must match the replay, and every report read after the window must
// equal the replay's report byte for byte.
func (o *outcome) check(cfg service.StreamConfig, p *plan, warm []*pushRec, r pass, post []readRec, countAllocs bool) {
	o.addPhase(countPushes("warmup", warm))
	o.addPhase(countPushes("window", r.pushes))
	o.addPhase(countReads("reads", r.reads))
	o.addPhase(countReads("post", post))
	for _, ph := range o.phases {
		o.attempted += ph.sent
		o.failed += ph.bad
	}
	all := append(append([]*pushRec(nil), warm...), r.pushes...)
	ref, err := replay(cfg, p, all, countAllocs)
	if err != nil {
		o.gateErr = err
		o.attempted++
		o.failed++
		return
	}
	o.plan, o.ref = p, ref
	gate := phase{name: "gate", sent: ref.pushes - len(p.streams) + len(post)}
	var badReads int
	badReads, o.served = gateReads(p, ref, post)
	gate.bad = ref.badAcks + badReads
	gate.succeeded = gate.sent - gate.bad
	o.addPhase(gate)
	o.attempted += gate.sent
	o.failed += gate.bad
}

// windowStats sets the push metrics of the timed window and returns the
// number of successful pushes.
func (o *outcome) windowStats(r pass) int {
	var lats []time.Duration
	bytes := 0
	for _, rec := range r.pushes {
		bytes += rec.size
		if rec.ok {
			lats = append(lats, rec.lat)
		}
	}
	o.percentile("push_p50_ms", lats, 0.5)
	o.percentile("push_p90_ms", lats, 0.9)
	if len(r.pushes) > 0 {
		o.set("push_bytes", float64(bytes)/float64(len(r.pushes)))
	}
	o.set("pushes_per_s", float64(len(lats))/r.window.Seconds())
	o.note("pushes_per_s", fmt.Sprintf("%d pushes in %.2f s, %d client(s), closed loop", len(lats), r.window.Seconds(), o.w.clients))
	return len(lats)
}

// latency sets a percentile of the successful reads' latencies.
func (o *outcome) latency(name string, reads []readRec, q float64) {
	var lats []time.Duration
	for _, rd := range reads {
		if rd.ok {
			lats = append(lats, rd.lat)
		}
	}
	o.percentile(name, lats, q)
}

// percentile sets the nearest-rank q-quantile of lats in milliseconds,
// noting the sample count and how many samples lie beyond it.
func (o *outcome) percentile(name string, lats []time.Duration, q float64) {
	if len(lats) == 0 {
		return
	}
	v, rank := nearestRank(lats, q)
	o.set(name, v)
	o.note(name, fmt.Sprintf("n=%d, %d beyond", len(lats), len(lats)-rank))
}

// nearestRank returns the nearest-rank q-quantile of lats in
// milliseconds and its 1-based rank (0, 0 when empty).
func nearestRank(lats []time.Duration, q float64) (float64, int) {
	if len(lats) == 0 {
		return 0, 0
	}
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	rank := int(math.Ceil(q * float64(len(ms))))
	if rank < 1 {
		rank = 1
	}
	return ms[rank-1], rank
}

// quantile is nearestRank's value alone.
func quantile(lats []time.Duration, q float64) float64 {
	v, _ := nearestRank(lats, q)
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line the command prints.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable report followed by the result line
// and returns the run's verdict. A metric the run could not measure
// makes the run incorrect and is reported as 0.
func (o *outcome) print(w io.Writer, defs []metricDef) (bool, error) {
	fmt.Fprintf(w, "pushbench workload=%s seed=%d clients=%d trace=%d n=%d streams=%d\n",
		o.w.name, o.seed, o.w.clients, o.trace, o.w.n, o.w.streams)
	for _, ph := range o.phases {
		fmt.Fprintln(w, ph)
	}
	if o.gateErr != nil {
		fmt.Fprintf(w, "gate: %v\n", o.gateErr)
	}
	for _, line := range o.extra {
		fmt.Fprintln(w, line)
	}
	res := resultJSON{Correct: o.failed == 0 && o.gateErr == nil, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "%-32s not measured\n", d.name)
			res.Correct, v = false, 0
		} else {
			fmt.Fprintf(w, "%-32s %14.4f %-6s %s\n", d.name, v, d.unit, o.notes[d.name])
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.4f %-6s failed=%d attempted=%d\n", "fail_ratio", ratio, "ratio", o.failed, o.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return res.Correct, err
}
