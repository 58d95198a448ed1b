// Command perfbench is the repository's benchmark: it runs one of four
// workloads through the public doall API for a fixed time, checks the
// model outputs, and prints every metric with its unit, sample count and
// statistic, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones, from a run that also records CPU profiles. Run it from
// a checkout's root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload da-tree --seed 0 --seconds 20 --trace 0
//
// See README.md next to this file for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doall"
)

// processStart approximates process start for setup_s: package
// variables initialize before main runs.
var processStart = time.Now()

const (
	runTimeout     = 60 * time.Second  // one simulation run
	jobTimeout     = 60 * time.Second  // one daemon job, enforced by the daemon
	predictTimeout = 30 * time.Second  // one /v1/predict round trip
	processLimit   = 170 * time.Second // the whole invocation
	setupReps      = 3                 // set-up repetitions behind setup_s
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "workload seed; 0 reproduces the recorded BENCH grids")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root holding TWIN_FIT.json")
	tmp := fs.String("tmp", ".bench_build", "scratch directory for the daemon's checkpoint log")
	commit := fs.String("commit", "", "commit stamped on the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := lookupWorkload(*name, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := newBench(w, *seed, *seconds, *trace == 1, *root, *tmp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.stamp = machineStamp(w.name, *seed, *trace == 1, *commit)
	stop := time.AfterFunc(processLimit-time.Since(processStart), func() {
		b.abort(fmt.Sprintf("the invocation exceeded %s", processLimit))
	})
	defer stop.Stop()
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.print(rep)
	if b.failed.Load() != 0 {
		return 1
	}
	return 0
}

// bench is one invocation: a workload at a seed, its inputs, and the
// operation counters every check reports into.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	tmp     string
	pins    map[string]measures // seed 0 only
	twin    *doall.Twin
	stamp   stamp
	reps    int // set-up repetitions

	outMu sync.Mutex
	out   io.Writer

	attempted, failed atomic.Int64
	probMu            sync.Mutex
	problems          []string

	wdMu sync.Mutex
	wd   *time.Timer
}

func newBench(w workload, seed int64, seconds float64, trace bool, root, tmp string, out io.Writer) (*bench, error) {
	fit, err := os.ReadFile(filepath.Join(root, "TWIN_FIT.json"))
	if err != nil {
		return nil, fmt.Errorf("load twin fit: %w", err)
	}
	tw, err := doall.LoadTwin(fit)
	if err != nil {
		return nil, fmt.Errorf("load twin fit: %w", err)
	}
	b := &bench{
		w: w, seed: seed, seconds: seconds,
		trace: trace, tmp: tmp, twin: tw, out: out, reps: setupReps,
	}
	if seed == 0 {
		if b.pins, err = loadPins(w.name); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// op counts one attempted operation and, when err is non-nil, one
// failure with its reason.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.problem(err)
	}
}

// problem records a failure: a failed operation, or a check on one that
// already counted as attempted.
func (b *bench) problem(err error) {
	b.failed.Add(1)
	b.probMu.Lock()
	defer b.probMu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, err.Error())
	}
}

// arm starts the per-operation timeout; a run that cannot be cancelled
// from outside is reported as a failed operation when it overruns, and
// the invocation ends rather than hang.
func (b *bench) arm(op string, d time.Duration) {
	b.wdMu.Lock()
	defer b.wdMu.Unlock()
	if b.wd != nil {
		b.wd.Stop()
	}
	b.wd = time.AfterFunc(d, func() { b.abort(fmt.Sprintf("%s exceeded its %s timeout", op, d)) })
}

func (b *bench) disarm() {
	b.wdMu.Lock()
	defer b.wdMu.Unlock()
	if b.wd != nil {
		b.wd.Stop()
		b.wd = nil
	}
}

// abort reports a timed-out operation as failed and exits.
func (b *bench) abort(why string) {
	b.op(errors.New("timeout: " + why))
	b.print(&report{})
	os.Exit(1)
}

// report is what one invocation measured. cells breaks the main
// latency down by cell, for reading where a change moved time.
type report struct {
	e2e, layer []metric
	cells      []metric
}

func (b *bench) problemsSnapshot() []string {
	b.probMu.Lock()
	defer b.probMu.Unlock()
	return append([]string(nil), b.problems...)
}

// print writes the human-readable report and the final JSON line.
func (b *bench) print(rep *report) {
	b.outMu.Lock()
	defer b.outMu.Unlock()
	st, _ := json.Marshal(b.stamp)
	fmt.Fprintf(b.out, "stamp %s\n", st)
	for _, p := range b.problemsSnapshot() {
		fmt.Fprintf(b.out, "FAIL %s\n", p)
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	if attempted < 1 {
		attempted = 1
		if failed == 0 {
			failed = 1
		}
	}
	fmt.Fprintf(b.out, "e2e   %-26s %16.6f %-9s %d of %d operations\n", "fail_frac", float64(failed)/float64(attempted), "frac", failed, attempted)
	for _, m := range rep.e2e {
		fmt.Fprintf(b.out, "e2e   %s\n", m)
	}
	for _, m := range rep.layer {
		fmt.Fprintf(b.out, "layer %s\n", m)
	}
	for _, m := range rep.cells {
		fmt.Fprintf(b.out, "cell  %s\n", m)
	}
	shown := rep.e2e
	if b.trace {
		shown = rep.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range shown {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && len(shown) > 0, attempted, failed, ms})
	fmt.Fprintf(b.out, "%s\n", line)
}

// run executes the workload: memory pre-flight, set-up, the timed loop,
// then the correctness checks outside the timed interval.
func (b *bench) run() (*report, error) {
	workers := 1
	if b.w.daemon {
		workers = 2 // the fleet engine and the predict engine
	}
	cfg := b.w.sweepConfig(workers)
	need := doall.EstimateSweepMemory(cfg)
	if avail := meminfoKB("MemAvailable") * 1024; avail > 0 && need > avail {
		return nil, fmt.Errorf("memory pre-flight: %s needs an estimated %d MiB, %d MiB available", b.w.name, need>>20, avail>>20)
	}
	if b.w.daemon {
		return b.runDaemon()
	}
	return b.runSweep()
}
