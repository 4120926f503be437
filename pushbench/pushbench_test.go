package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the harness must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricFileDef `json:"end_to_end"`
	PerLayer []metricFileDef `json:"per_layer"`
}

type metricFileDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestMetricDefinitionsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	check := func(kind string, file []metricFileDef, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(file), len(code))
		}
		byName := map[string]metricDef{}
		for _, d := range code {
			byName[d.name] = d
		}
		for _, fd := range file {
			d, ok := byName[fd.Name]
			if !ok || d.unit != fd.Unit || d.better != fd.Better {
				t.Errorf("%s: BENCHMARK.json has %+v, the harness %+v", kind, fd, d)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEndMetrics)
	check("per_layer", f.PerLayer, layerMetrics)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	sort.Strings(names)
	sort.Strings(code)
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, code)
	}
}

// printedNames runs print and returns the metric names of the result
// line, which must be the last line of the output.
func printedNames(t *testing.T, out *outcome, defs []metricDef) map[string]bool {
	t.Helper()
	var buf bytes.Buffer
	correct, err := out.print(&buf, defs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, buf.String())
	}
	if !correct || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run failed its gate:\n%s", buf.String())
	}
	names := map[string]bool{}
	for name := range res.Metrics {
		names[name] = true
	}
	return names
}

func sameNames(t *testing.T, kind string, got map[string]bool, want []metricFileDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, d := range want {
		if !got[d.Name] {
			t.Errorf("%s: %s listed in BENCHMARK.json but not printed", kind, d.Name)
		}
	}
}

// tamperTrips checks that the run's served reports pass the gate as
// served and fail it after one byte of one report changes.
func tamperTrips(t *testing.T, out *outcome) {
	t.Helper()
	var reads []readRec
	for s, sd := range out.plan.streams {
		body := append([]byte(nil), out.served[sd.id]...)
		reads = append(reads, readRec{stream: s, ok: true, body: body})
	}
	if bad, _ := gateReads(out.plan, out.ref, reads); bad != 0 {
		t.Fatalf("%d served reports fail the gate untampered", bad)
	}
	body := reads[len(reads)-1].body
	body[len(body)/2] ^= 1
	if bad, _ := gateReads(out.plan, out.ref, reads); bad != 1 {
		t.Fatalf("a tampered report tripped the gate %d times, want 1", bad)
	}
}

// tiny shrinks a workload to a few-second smoke size with the same
// structure.
func (w workload) tiny() workload {
	w.n = 60
	if w.streams > 4 {
		w.streams = 4
	}
	if w.warmup > 4 {
		w.warmup = 4
	}
	w.maxRate = 40
	return w
}

// TestTinyWorkloads runs every workload at a few-second size in both
// modes: the untraced run against cadd processes built from the tree,
// and the traced in-process run.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cadd and runs every workload")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	bin := filepath.Join(t.TempDir(), "cadd")
	if msg, err := exec.Command(goTool, "build", "-o", bin, "dyngraph/cmd/cadd").CombinedOutput(); err != nil {
		t.Fatalf("building cadd: %v\n%s", err, msg)
	}
	f := readBenchmarkFile(t)
	ctx := context.Background()
	for _, w := range workloads {
		w := w.tiny()
		t.Run(w.name, func(t *testing.T) {
			e2e, err := endToEnd(ctx, w, 3, 1, bin, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, "end_to_end", printedNames(t, e2e, endToEndMetrics), f.EndToEnd)
			tamperTrips(t, e2e)

			tr, err := traced(ctx, w, 3, 1, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, "per_layer", printedNames(t, tr, layerMetrics), f.PerLayer)
			tamperTrips(t, tr)
		})
	}
}
