package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchToyExperiments(t *testing.T) {
	// The deterministic toy experiments are cheap enough to run in the
	// CLI test and cover the dispatch, flag parsing and rendering paths
	// end to end.
	var out, errBuf bytes.Buffer
	code := realMain([]string{"-exp", "table1"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "Table 1") || !strings.Contains(out.String(), "(b1,r1)") {
		t.Fatalf("table1 output wrong:\n%s", out.String())
	}

	out.Reset()
	if code := realMain([]string{"-exp", "fig3"}, &out, &errBuf); code != 0 {
		t.Fatalf("fig3 exit %d", code)
	}
	if !strings.Contains(out.String(), "separation") {
		t.Fatalf("fig3 output missing separation line:\n%s", out.String())
	}
}

// TestBenchUnknownExperiment also pins that the retired serving
// experiments stay retired: their counters live in internal/core's
// TestPushCounters.
func TestBenchUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "stream"} {
		var out, errBuf bytes.Buffer
		if code := realMain([]string{"-exp", exp}, &out, &errBuf); code != 1 {
			t.Fatalf("%s: exit %d, want 1", exp, code)
		}
		if !strings.Contains(errBuf.String(), "unknown experiment") {
			t.Fatalf("%s: stderr: %s", exp, errBuf.String())
		}
	}
}

func TestBenchBadSizes(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-exp", "scale", "-sizes", "10,abc"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestBenchBadFamily(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-exp", "scale", "-family", "bogus"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "unknown graph family") {
		t.Fatalf("stderr: %s", errBuf.String())
	}
}

func TestBenchBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-nope"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestBenchFig6Plot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out, errBuf bytes.Buffer
	code := realMain([]string{"-exp", "fig6", "-n", "100", "-trials", "2", "-plot"}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "* CAD") {
		t.Fatalf("ROC chart legend missing:\n%s", out.String())
	}
}

func TestBenchRemainingCheapExperiments(t *testing.T) {
	// Cover the dispatch paths that run in well under a second each.
	for _, exp := range []string{"table2", "fig2", "fig4"} {
		var out, errBuf bytes.Buffer
		if code := realMain([]string{"-exp", exp}, &out, &errBuf); code != 0 {
			t.Fatalf("%s: exit %d: %s", exp, code, errBuf.String())
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", exp)
		}
	}
}

func TestBenchFig4Plot(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-exp", "fig4", "-n", "150", "-plot"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, want := range []string{"Figure 4a", "Figure 4b", "contrast ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestBenchDistanceTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-exp", "distance", "-n", "100", "-trials", "2"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "shortest-path") {
		t.Fatal("distance table missing")
	}
}
