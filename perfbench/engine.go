package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"doall"
)

// runRec is one measured run: one trial of one cell, timed at the two
// public boundaries a run crosses — construction (Scenario.Machines and
// Scenario.BuildAdversary) and the engine (SimEngine.Run).
type runRec struct {
	key                                    string
	buildMs, simMs                         float64
	phase                                  [3]time.Duration // A1, A2, B
	steps, messages, bytes, primary, execs int64
	out                                    measures
	gc                                     gcReading
	traced                                 bool
}

func (r runRec) ms() float64 { return r.buildMs + r.simMs }

// runOne executes one run exactly as doall's reusable-engine path does
// (build machines and adversary from the spec, then SimEngine.Run with
// no observer) and checks the run's invariants once the clock stops.
func (b *bench) runOne(eng *doall.SimEngine, key string, sc doall.Scenario, tr *tracer) (runRec, error) {
	rec := runRec{key: key}
	b.arm("run "+rec.key, runTimeout)
	defer b.disarm()
	rec.traced = tr.begin()
	defer tr.end()
	g0 := readGC()
	ph0 := eng.PhaseProfile()
	t0 := time.Now()
	ms, err := sc.Machines()
	if err != nil {
		return rec, fmt.Errorf("%s: machines: %w", rec.key, err)
	}
	adv, err := sc.BuildAdversary()
	if err != nil {
		return rec, fmt.Errorf("%s: adversary: %w", rec.key, err)
	}
	t1 := time.Now()
	res, err := eng.Run(doall.SimConfig{
		P: sc.P, T: sc.T, MaxSteps: sc.MaxSteps, Shards: doall.ResolveShards(sc.Shards, sc.P),
	}, ms, adv)
	t2 := time.Now()
	ph1 := eng.PhaseProfile()
	rec.gc = readGC().sub(g0)
	if err != nil {
		return rec, fmt.Errorf("%s seed %d: run: %w", rec.key, sc.Seed, err)
	}
	if err := checkRun(res, sc.T); err != nil {
		return rec, fmt.Errorf("%s seed %d: %w", rec.key, sc.Seed, err)
	}
	rec.buildMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	rec.simMs = float64(t2.Sub(t1).Nanoseconds()) / 1e6
	rec.phase = [3]time.Duration{ph1.A1 - ph0.A1, ph1.A2 - ph0.A2, ph1.B - ph0.B}
	rec.steps, rec.messages, rec.bytes = res.TotalSteps, res.Messages, res.Bytes
	rec.primary, rec.execs = res.PrimaryExecutions, res.TaskExecutions
	rec.out = measures{float64(res.Work), float64(res.Messages), float64(res.SolvedAt)}
	return rec, nil
}

// tracer records CPU profiles of every other operation in a traced
// invocation, so traced and plain operations interleave over the same
// mix and their difference is the tracing overhead. A nil tracer, or
// one that is off, traces nothing.
//
// Which operations are traced flips with every pass over the script,
// so each cell is traced in some passes and plain in others even when a
// pass holds an even number of operations.
type tracer struct {
	on     bool
	pass   int // passes over the script completed
	n      int // operations begun in this pass
	active bool
	buf    bytes.Buffer
	self   selfTime
	err    error
}

func newTracer(on bool) *tracer { return &tracer{on: on, self: selfTime{}} }

func (t *tracer) begin() bool {
	if t == nil || !t.on {
		return false
	}
	t.n++
	if (t.n+t.pass)%2 == 0 {
		return false
	}
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		t.err = err
		return false
	}
	t.active = true
	return true
}

// nextPass starts a new pass over the script.
func (t *tracer) nextPass() {
	if t != nil {
		t.pass++
		t.n = 0
	}
}

func (t *tracer) end() {
	if t == nil || !t.active {
		return
	}
	pprof.StopCPUProfile()
	t.active = false
	if err := t.self.addProfile(t.buf.Bytes()); err != nil && t.err == nil {
		t.err = err
	}
}

// profileMetrics reports each layer's share of the profiled CPU time.
func (t *tracer) profileMetrics() []metric {
	total := t.self.total()
	ms := []metric{{Name: "profile.cpu_s", Unit: "s", Value: float64(total) / 1e9, Stat: "total"}}
	for _, l := range profLayers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(t.self[l]) / float64(total)
		}
		ms = append(ms, metric{Name: l + ".self_pct", Unit: "%", Value: share, Stat: "share"})
	}
	return ms
}

// overhead compares traced and plain operations of the same kind:
// the median over kinds of (traced median / plain median) − 1.
func overhead(traced, plain map[string]sample) float64 {
	var ratios sample
	for k, tr := range traced {
		if pl := plain[k]; len(tr) > 0 && len(pl) > 0 {
			ratios = append(ratios, tr.median()/pl.median())
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return ratios.median() - 1
}

// phaseShare reports a tick phase as its share of engine time, with the
// mean milliseconds per run alongside. Shares, unlike times, can read a
// steady 0 on workloads that never shard.
func phaseShare(name string, d time.Duration, simNs, runs float64) metric {
	share := 0.0
	if simNs > 0 {
		share = float64(d.Nanoseconds()) / simNs
	}
	return metric{Name: name, Unit: "frac", Value: share, Stat: fmt.Sprintf("share of engine time (mean %.3f ms/run)", float64(d.Nanoseconds())/1e6/runs)}
}

// runLayers summarizes the layer metrics of a set of runs. Every run of
// an invocation has its own (cell, seed), so the model counts are
// deterministic sums for a given workload seed and run length. gc is the
// runtime-counter delta over ops operations of the workload (runs, or
// daemon jobs).
func runLayers(runs []runRec, gc gcReading, ops int) []metric {
	var build, sim sample
	var simNs, steps float64
	var phase [3]time.Duration
	for _, r := range runs {
		build = append(build, r.buildMs)
		sim = append(sim, r.simMs)
		simNs += r.simMs * 1e6
		steps += float64(r.steps)
		for i := range phase {
			phase[i] += r.phase[i]
		}
	}
	n := float64(len(runs))
	if n == 0 {
		n = 1
	}
	if ops < 1 {
		ops = 1
	}
	var cSteps, cMsgs, cBytes, cPrim, cExec int64
	for _, r := range runs {
		cSteps += r.steps
		cMsgs += r.messages
		cBytes += r.bytes
		cPrim += r.primary
		cExec += r.execs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	total := phase[0] + phase[1] + phase[2]
	return []metric{
		p50Metric("scenario.build_ms", "ms", build),
		p50Metric("sim.run_ms", "ms", sim),
		{Name: "sim.ns_per_step", Unit: "ns", Value: ratio(simNs, steps), N: len(runs), Stat: "total/total"},
		phaseShare("sim.phase_a1_frac", phase[0], simNs, n),
		phaseShare("sim.phase_a2_frac", phase[1], simNs, n),
		phaseShare("sim.phase_b_frac", phase[2], simNs, n),
		{Name: "sim.serial_frac", Unit: "frac", Value: ratio(float64(phase[0]+phase[2]), float64(total)), N: len(runs), Stat: "total/total"},
		{Name: "sim.steps", Unit: "count", Value: float64(cSteps), N: len(runs), Stat: "total"},
		{Name: "sim.messages", Unit: "count", Value: float64(cMsgs), N: len(runs), Stat: "total"},
		{Name: "sim.bytes", Unit: "B", Value: float64(cBytes), N: len(runs), Stat: "total"},
		{Name: "core.useful_frac", Unit: "frac", Value: ratio(float64(cPrim), float64(cExec)), N: len(runs), Stat: "total"},
		{Name: "gc.alloc_mb_per_run", Unit: "MB", Value: gc.allocBytes / (1 << 20) / float64(ops), N: ops, Stat: "mean"},
		{Name: "gc.cpu_s", Unit: "s", Value: gc.gcCPU / float64(ops), N: ops, Stat: "mean"},
		{Name: "gc.pause_ms", Unit: "ms", Value: gc.pauses * 1e3 / float64(ops), N: ops, Stat: "mean"},
	}
}
