// Command pushbench is the push-ledger benchmark: it drives the real
// serving stack with seeded, pre-generated snapshot streams, checks
// every served report against an in-process replay, and prints
// end-to-end metrics (--trace 0, against cadd processes) or per-layer
// metrics (--trace 1, the same workload in-process with each layer
// timed from outside). The last line of standard output is one JSON
// object with the run's verdict and metrics.
//
// Run it through the launcher, from the repository root, so that the
// daemon and the harness are built from the checkout:
//
//	bash pushbench/run.sh --workload edit1 --seed 1 --seconds 20 --trace 0
//
// The workloads, metrics and the layer → metric → workload map are
// described in pushbench/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pushbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: edit1, rewire or fleet")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "timed window length in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end run against cadd processes; 1: traced per-layer run in-process")
		cadd    = fs.String("cadd", ".bench_build/bin/cadd", "cadd binary for the end-to-end run")
		work    = fs.String("work", ".bench_build/work", "scratch directory for data dirs and daemon logs")
		traces  = fs.String("traces", ".bench_build/traces", "directory the traced run writes its Chrome trace to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "pushbench: need --workload edit1|rewire|fleet, --seconds > 0 and --trace 0|1")
		return 2
	}
	dir := filepath.Join(*work, "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	out, err := measure(ctx, w, *seed, *seconds, *trace, *cadd, dir, *traces)
	if err != nil {
		fmt.Fprintln(stderr, "pushbench:", err)
		return 1
	}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = layerMetrics
	}
	correct, err := out.print(stdout, defs)
	if err != nil {
		fmt.Fprintln(stderr, "pushbench:", err)
		return 1
	}
	if !correct {
		fmt.Fprintln(stderr, "pushbench: correctness gate failed")
		return 1
	}
	return 0
}

// measure runs one workload in the requested mode.
func measure(ctx context.Context, w workload, seed int64, seconds float64, trace int, cadd, dir, traces string) (*outcome, error) {
	if trace == 1 {
		return traced(ctx, w, seed, seconds, dir, traces)
	}
	bin, err := filepath.Abs(cadd)
	if err != nil {
		return nil, err
	}
	return endToEnd(ctx, w, seed, seconds, bin, dir)
}
