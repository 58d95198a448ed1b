package main

import (
	"time"

	"doall"
)

// sweepEnv is what a sweep workload sets up: one reusable engine, as a
// sweep worker owns, and a predict-only daemon (no engine fleet) that
// answers the predict script between runs. Its client reaches the
// handler in-process: between cells the process is otherwise idle, and
// over loopback each request would pay a cross-CPU wake-up whose cost
// varies with the virtual machine's idle states from one process to
// the next (median 49-82 µs on the reference machine), swamping the
// handler's own time.
type sweepEnv struct {
	eng *doall.SimEngine
	d   *daemonEnv
}

func (e *sweepEnv) close() error {
	e.eng.Close()
	return e.d.close()
}

// newSweepEnv builds the environment and warms it: one run of the
// workload's canonical first cell on the fresh engine and one pass of
// the predict script, so pools and lazy state are ready before timing.
func (b *bench) newSweepEnv(qs []doall.TwinQuery) (*sweepEnv, error) {
	d, err := startDaemon(doall.ServiceConfig{Workers: -1, Twin: b.twin}, false)
	if err != nil {
		return nil, err
	}
	e := &sweepEnv{eng: doall.NewSimEngine(), d: d}
	_, err = b.runOne(e.eng, b.w.cells[0].key(), b.w.scenario(b.w.cells[0], b.seed), nil)
	b.op(err)
	for i := range qs {
		b.predict(d, qs, i)
	}
	return e, nil
}

// runSweep drives da-tree, paran1-build and fault-mix: whole passes
// over the script, cells back to back on one engine, each cell's trials
// averaged and gated, with the predict script sent once per cell.
func (b *bench) runSweep() (*report, error) {
	script := b.w.script(b.seed)
	qs := predictScript(b.seed)

	static := time.Since(processStart).Seconds()
	var env *sweepEnv
	var setup sample
	for i := 0; i < b.reps; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if env, err = b.newSweepEnv(qs); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	sims0 := env.d.svc.PredictSimRuns()

	tr := newTracer(b.trace)
	var (
		runs          []runRec
		runMs, cellMs sample
		preds         []predictRec
		steps         int64
	)
	start := time.Now()
	for pass := 0; pass < b.w.passes(b.seconds); pass++ {
		for _, c := range script {
			var sum measures
			var cellTime float64
			ok := true
			for i := 0; i < b.w.trials; i++ {
				// Each pass runs fresh trial seeds, so a run averages over
				// pass×trials draws of every randomized adversary; pass 0
				// is the recorded grid's cell.
				sc := c.sc
				sc.Seed += int64(pass*b.w.trials + i)
				r, err := b.runOne(env.eng, c.key(), sc, tr)
				b.op(err)
				// Each trial is followed by every trials-th query of the
				// predict script, so a cell sends the script once, in
				// short bursts spread over the run.
				for j := i; j < len(qs); j += b.w.trials {
					if p, ok := b.predict(env.d, qs, j); ok {
						preds = append(preds, p)
					}
				}
				if err != nil {
					ok = false
					continue
				}
				runs = append(runs, r)
				runMs = append(runMs, r.ms())
				cellTime += r.ms()
				steps += r.steps
				sum.Work += r.out.Work
				sum.Messages += r.out.Messages
				sum.SolvedAt += r.out.SolvedAt
			}
			if ok {
				n := float64(b.w.trials)
				avg := measures{sum.Work / n, sum.Messages / n, sum.SolvedAt / n}
				if pass == 0 {
					if err := checkPinned(b.pins, c.key(), avg); err != nil {
						b.problem(err)
					}
				}
				cellMs = append(cellMs, cellTime)
			}
		}
		tr.nextPass()
	}
	wall := time.Since(start).Seconds()
	ps := b.checkPredicts(preds, qs, env.d.svc)
	ps.simRuns = env.d.svc.PredictSimRuns() - sims0
	if err := env.close(); err != nil {
		return nil, err
	}
	if tr.err != nil {
		return nil, tr.err
	}

	rep := &report{cells: runsByCell(runs)}
	rep.e2e = []metric{
		p50Metric("run_ms_p50", "ms", runMs),
		tailMetric("run_ms_tail", "ms", runMs),
		{Name: "sim_msteps_per_s", Unit: "Msteps/s", Value: float64(steps) / 1e6 / wall, N: len(runs), Stat: "total/wall"},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB(), Stat: "max"},
		p50Metric("job_ms_p50", "ms", cellMs),
		tailMetric("job_ms_tail", "ms", cellMs),
		{Name: "jobs_per_s", Unit: "1/s", Value: float64(len(cellMs)) / (cellMs.sum() / 1e3), N: len(cellMs), Stat: "count/busy"},
	}
	rep.e2e = append(rep.e2e, ps.e2e()...)
	rep.e2e = append(rep.e2e, metric{Name: "setup_s", Unit: "s", Value: static + setup.median(), N: len(setup), Stat: "p50"})

	var gc gcReading
	traced, plain := map[string]sample{}, map[string]sample{}
	for _, r := range runs {
		gc = gc.add(r.gc)
		if r.traced {
			traced[r.key] = append(traced[r.key], r.ms())
		} else {
			plain[r.key] = append(plain[r.key], r.ms())
		}
	}
	rep.layer = runLayers(runs, gc, len(runs))
	rep.layer = append(rep.layer, tr.profileMetrics()...)
	rep.layer = append(rep.layer, noJobLayers()...)
	rep.layer = append(rep.layer, ps.layer()...)
	rep.layer = append(rep.layer, metric{Name: "trace.overhead_frac", Unit: "frac", Value: overhead(traced, plain), N: len(runs), Stat: "p50 ratio - 1"})
	return rep, nil
}

// runsByCell is the run_ms median of each distinct cell, in first-seen
// order.
func runsByCell(runs []runRec) []metric {
	per := map[string]sample{}
	var order []string
	for _, r := range runs {
		if _, ok := per[r.key]; !ok {
			order = append(order, r.key)
		}
		per[r.key] = append(per[r.key], r.ms())
	}
	ms := make([]metric, len(order))
	for i, k := range order {
		ms[i] = p50Metric("run_ms "+k, "ms", per[k])
	}
	return ms
}

// noJobLayers stands in for the daemon job layers on workloads that
// submit no jobs: they read 0.
func noJobLayers() []metric {
	var ms []metric
	for _, n := range []string{"service.submit_frac", "service.queue_wait_frac", "service.exec_frac", "service.stream_frac"} {
		ms = append(ms, metric{Name: n, Unit: "frac", Stat: "n/a"})
	}
	return append(ms,
		metric{Name: "service.observer_tax", Unit: "ratio", Stat: "n/a"},
		metric{Name: "service.wal_bytes_per_job", Unit: "B", Stat: "n/a"})
}
