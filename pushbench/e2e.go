package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dyngraph/internal/service"
)

// setupRounds is how many times a run launches and primes the stack;
// setup_s is their median and the last one serves the timed window.
const setupRounds = 5

// proc is one cadd process.
type proc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error // receives Wait's result once stdout is drained
}

// startCadd launches the daemon and waits until it announces its
// listen address on stdout.
func startCadd(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	setDeathSignal(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting cadd: %w", err)
	}
	p := &proc{cmd: cmd, log: logf, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	select {
	case p.addr = <-addr:
		return p, nil
	case err := <-p.done:
		logf.Close()
		return nil, fmt.Errorf("cadd exited before listening (%v); see %s", err, logPath)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-p.done
		logf.Close()
		return nil, fmt.Errorf("cadd did not announce an address within 30s; see %s", logPath)
	}
}

// stop asks the daemon to drain and exit, and kills it if it does not
// within the grace period. It returns once the process has exited.
func (p *proc) stop() error {
	if p == nil {
		return nil
	}
	defer p.log.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("cadd pid %d ignored SIGTERM for 60s and was killed", p.cmd.Process.Pid)
	}
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuTicks returns a process's user+system CPU time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return u + s, nil
}

// peakRSSKiB returns a process's peak resident set (VmHWM).
func peakRSSKiB(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// procStack is the untraced serving stack: a node and, for routed
// workloads, a router in front of it.
type procStack struct {
	node, router *proc
	target       *target
}

func (s *procStack) procs() []*proc {
	if s.router != nil {
		return []*proc{s.node, s.router}
	}
	return []*proc{s.node}
}

func (s *procStack) stop() error {
	var first error
	for _, p := range []*proc{s.router, s.node} {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *procStack) cpuTicks() (int64, error) {
	var total int64
	for _, p := range s.procs() {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// launch starts the daemon processes for one set-up round. The node
// keeps the daemon's defaults apart from tracing (off), the data dir and
// the workload's journal and budget settings.
func launch(w workload, bin, dir string, budget int64) (*procStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-trace-buffer", "0", "-log-level", "error",
		"-data-dir", filepath.Join(dir, "data")}
	if w.snapshotEvery > 0 {
		args = append(args, "-snapshot-every", strconv.Itoa(w.snapshotEvery))
	}
	if budget > 0 {
		args = append(args, "-mem-budget", strconv.FormatInt(budget, 10))
	}
	node, err := startCadd(bin, filepath.Join(dir, "node.log"), args...)
	if err != nil {
		return nil, err
	}
	st := &procStack{node: node, target: &target{hc: newHTTPClient(w.clients + 1), baseURL: "http://" + node.addr}}
	if w.routed {
		st.router, err = startCadd(bin, filepath.Join(dir, "router.log"),
			"-addr", "127.0.0.1:0", "-log-level", "error", "-cluster-peers", "a="+st.target.baseURL)
		if err != nil {
			node.stop()
			return nil, err
		}
		st.target.baseURL = "http://" + st.router.addr
	}
	return st, nil
}

// memBudget sizes the node's -mem-budget so that about residentShare
// of the streams fit: one stream's footprint after its first transition
// is measured with the reference detector, and the budget puts that
// share of the streams between the governor's 75% low and 90% high
// watermarks.
func memBudget(w workload, p *plan, cfg service.StreamConfig) (int64, error) {
	if w.residentShare == 0 {
		return 0, nil
	}
	sd := p.streams[0]
	det := newDetector(cfg)
	vt := sd.table()
	for k := 0; k < 2; k++ {
		g, err := sd.graphOf(0, vt)
		if err != nil {
			return 0, err
		}
		if _, err := det.Push(g); err != nil {
			return 0, err
		}
	}
	share := float64(det.SizeBytes()) * float64(w.streams) * w.residentShare
	return int64(share / 0.825), nil
}

// endToEnd is the untraced run against cadd processes built from the
// tree.
func endToEnd(ctx context.Context, w workload, seed int64, seconds float64, bin, work string) (*outcome, error) {
	cfg := w.cfg
	cfg.Seed = seed
	p := generate(w, seed, seconds)
	budget, err := memBudget(w, p, cfg)
	if err != nil {
		return nil, err
	}
	out := newOutcome(w, seed, 0)

	var setups []float64
	var st *procStack
	for r := 0; r < setupRounds; r++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		st, err = launch(w, bin, filepath.Join(work, fmt.Sprintf("setup%d", r)), budget)
		if err != nil {
			return nil, err
		}
		if err = st.target.createStreams(ctx, p, cfg); err == nil {
			err = st.target.prime(ctx, p)
		}
		if err != nil {
			st.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.stop()
	out.addPhase(phase{name: "setup", sent: setupRounds * len(p.streams), succeeded: setupRounds * len(p.streams)})

	warm := st.target.warm(ctx, p)
	cpu0, err := st.cpuTicks()
	if err != nil {
		return nil, err
	}
	r := st.target.drive(ctx, p, seconds)
	cpu1, err := st.cpuTicks()
	if err != nil {
		return nil, err
	}
	var rssKiB int64
	for _, pr := range st.procs() {
		kib, err := peakRSSKiB(pr.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rssKiB += kib
	}
	post := postWindowReads(ctx, st.target, p)
	out.check(cfg, p, warm, r, post, false)

	ok := out.windowStats(r)
	out.latency("report_p50_ms", r.reads, 0.5)
	out.set("setup_s", median(setups))
	out.note("setup_s", fmt.Sprintf("median of %d launches %s", len(setups), fmtSeconds(setups)))
	if ok > 0 {
		out.set("server_cpu_ms_per_push", float64(cpu1-cpu0)*1000/clockTicks/float64(ok))
	}
	out.set("server_rss_mib", float64(rssKiB)/1024)
	out.note("server_rss_mib", fmt.Sprintf("VmHWM summed over %d server processes", len(st.procs())))
	return out, nil
}

// postWindowReads reads every stream's report once after the window,
// for the correctness gate.
func postWindowReads(ctx context.Context, t *target, p *plan) []readRec {
	var out []readRec
	for s, sd := range p.streams {
		r := t.report(ctx, sd)
		r.stream = s
		out = append(out, r)
	}
	return out
}

func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "] s"
}
