package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"doall"
)

const (
	// predictThink paces the closed-loop predict client so it shares
	// the two cores with the job path instead of saturating one.
	predictThink = 5 * time.Millisecond
	// directReps is how often each job spec is re-run directly after
	// the closed loop, for run_ms and the observer tax.
	directReps = 3
)

// jobRec is one daemon job: submit to result-stream trailer.
type jobRec struct {
	spec      int // index into workload.cells
	pass      int
	sc        doall.Scenario
	ms        float64
	submitMs  float64
	trailerMs float64 // Unix milliseconds when the trailer arrived
	traced    bool
	cell      doall.SweepCell
	status    doall.JobStatus // traced invocations only
}

// newDaemonEnv starts doalld's core in-process (one fleet engine, a
// checkpoint log in a fresh directory, TWIN_FIT.json loaded) and warms
// it with one job of the canonical first cell and one pass of the
// predict script. The warm-up job is in the log, so the log holds one
// job more than the timed loop ran.
func (b *bench) newDaemonEnv(qs []doall.TwinQuery) (*daemonEnv, string, error) {
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(b.tmp, "perfbench-wal-")
	if err != nil {
		return nil, "", err
	}
	d, err := startDaemon(doall.ServiceConfig{Workers: 1, Checkpoint: filepath.Join(dir, "checkpoint.ndjson"), Twin: b.twin}, true)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	_, err = b.job(d, b.w.scenario(b.w.cells[0], b.seed), nil)
	b.op(err)
	for i := range qs {
		b.predict(d, qs, i)
	}
	return d, dir, nil
}

// job submits one scenario job and follows its result stream to the
// trailer.
func (b *bench) job(d *daemonEnv, sc doall.Scenario, tr *tracer) (jobRec, error) {
	var rec jobRec
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout+30*time.Second)
	defer cancel()
	job := doall.Job{Scenario: &sc, Timeout: doall.JobDuration(jobTimeout)}
	rec.traced = tr.begin()
	defer tr.end()
	t0 := time.Now()
	st, err := d.client.Submit(ctx, job)
	t1 := time.Now()
	if err != nil {
		return rec, fmt.Errorf("submit: %w", err)
	}
	cells := 0
	trailer, err := d.client.Results(ctx, st.ID, func(rc doall.ResultCell) error {
		rec.cell = rc.Cell
		cells++
		return nil
	})
	t2 := time.Now()
	switch {
	case err != nil:
		return rec, fmt.Errorf("job %s: results: %w", st.ID, err)
	case !trailer.Done || trailer.State != doall.JobDone:
		return rec, fmt.Errorf("job %s ended %s (done=%v): %s", st.ID, trailer.State, trailer.Done, trailer.Err)
	case cells != 1 || rec.cell.Err != "":
		return rec, fmt.Errorf("job %s: %d cells, cell error %q", st.ID, cells, rec.cell.Err)
	}
	rec.ms = float64(t2.Sub(t0).Nanoseconds()) / 1e6
	rec.submitMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	rec.trailerMs = float64(t2.UnixNano()) / 1e6
	if tr != nil && tr.on {
		if rec.status, err = d.client.Status(ctx, st.ID); err != nil {
			return rec, fmt.Errorf("job %s: status: %w", st.ID, err)
		}
	}
	return rec, nil
}

// checkRunScenario compares a direct run's outputs with
// doall.RunScenario of the same spec.
func checkRunScenario(key string, sc doall.Scenario, got measures) error {
	res, err := doall.RunScenario(sc)
	if err != nil {
		return fmt.Errorf("RunScenario %s seed %d: %w", key, sc.Seed, err)
	}
	want := measures{float64(res.Sim.Work), float64(res.Sim.Messages), float64(res.Sim.SolvedAt)}
	if got != want {
		return fmt.Errorf("RunScenario %s seed %d: %+v != reusable-engine run %+v", key, sc.Seed, want, got)
	}
	return nil
}

// jobShare reports one span of a daemon job (submit, queue wait,
// execution, result streaming) as its share of job time, with the mean
// milliseconds alongside. The daemon stamps whole milliseconds, so the
// spans are averaged rather than ranked.
func jobShare(name string, span, jobMs sample) metric {
	share := 0.0
	if t := jobMs.sum(); t > 0 {
		share = span.sum() / t
	}
	return metric{Name: name, Unit: "frac", Value: share, N: len(span), Stat: fmt.Sprintf("share of job time (mean %.3f ms)", span.mean())}
}

// runDaemon drives daemon-mix: two closed-loop clients against one
// in-process daemon, then the cross-checks outside the timed interval.
func (b *bench) runDaemon() (*report, error) {
	script := b.w.script(b.seed)
	specIdx := map[string]int{}
	for i, c := range b.w.cells {
		specIdx[c.key()] = i
	}
	qs := predictScript(b.seed)

	static := time.Since(processStart).Seconds()
	var d *daemonEnv
	var walDir string
	var setup sample
	for i := 0; i < b.reps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(walDir)
		}
		t0 := time.Now()
		var err error
		if d, walDir, err = b.newDaemonEnv(qs); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(walDir)
	sims0 := d.svc.PredictSimRuns()

	tr := newTracer(b.trace)
	var jobs []jobRec
	var preds []predictRec
	start := time.Now()
	g0 := readGC()
	// The job client makes whole passes over the script; the predict
	// client runs beside it until the job client is done, and makes at
	// least one pass over its own script.
	jobsDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-jobsDone:
				if i >= len(qs) {
					return
				}
			default:
			}
			if r, ok := b.predict(d, qs, i%len(qs)); ok {
				preds = append(preds, r)
			}
			time.Sleep(predictThink)
		}
	}()
	for pass := 0; pass < b.w.passes(b.seconds); pass++ {
		for _, c := range script {
			// Each pass submits fresh seeds, so the closed loop averages
			// over many draws of the randomized adversaries.
			sc := c.sc
			sc.Seed += int64(pass)
			r, err := b.job(d, sc, tr)
			b.op(err)
			if err != nil {
				continue
			}
			r.spec, r.pass, r.sc = specIdx[c.key()], pass, sc
			jobs = append(jobs, r)
		}
		tr.nextPass()
	}
	close(jobsDone)
	wall := time.Since(start).Seconds()
	wg.Wait()
	gc := readGC().sub(g0)
	simRuns := d.svc.PredictSimRuns() - sims0
	ps := b.checkPredicts(preds, qs, d.svc)
	ps.simRuns = simRuns
	if err := d.close(); err != nil {
		return nil, err
	}
	if tr.err != nil {
		return nil, tr.err
	}
	wal, err := os.Stat(filepath.Join(walDir, "checkpoint.ndjson"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint log: %w", err)
	}

	// Cross-check every job against a direct, unobserved run of the same
	// spec and seed on one reusable engine (the path doall.RunScenario is
	// documented byte-identical to); those runs give run_ms and the
	// observer tax. The first pass's specs are also run through
	// doall.RunScenario itself.
	eng := doall.NewSimEngine()
	defer eng.Close()
	var runs []runRec
	var runMs, jobMs, tracedJobMs, submit, wait, exec, stream sample
	var steps int64
	var execSum, directSum float64
	traced, plain := map[string]sample{}, map[string]sample{}
	for _, j := range jobs {
		key := b.w.cells[j.spec].key()
		r, err := b.runOne(eng, key, j.sc, nil)
		if err != nil {
			b.problem(err)
			continue
		}
		runs = append(runs, r)
		runMs = append(runMs, r.ms())
		got := measures{j.cell.Work, j.cell.Messages, j.cell.SolvedAt}
		if got != r.out {
			b.problem(fmt.Errorf("job %s seed %d: daemon cell %+v != direct run %+v", key, j.sc.Seed, got, r.out))
		}
		if j.pass == 0 {
			if err := checkRunScenario(key, j.sc, r.out); err != nil {
				b.problem(err)
			}
			if err := checkPinned(b.pins, key, got); err != nil {
				b.problem(err)
			}
		}
		jobMs = append(jobMs, j.ms)
		steps += r.steps
		if j.traced {
			traced[key] = append(traced[key], j.ms)
		} else {
			plain[key] = append(plain[key], j.ms)
		}
		if st := j.status; st.FinishedMS > 0 {
			tracedJobMs = append(tracedJobMs, j.ms)
			submit = append(submit, j.submitMs)
			wait = append(wait, float64(st.StartedMS-st.SubmittedMS))
			exec = append(exec, float64(st.FinishedMS-st.StartedMS))
			stream = append(stream, j.trailerMs-float64(st.FinishedMS))
			execSum += float64(st.FinishedMS - st.StartedMS)
			directSum += r.ms()
		}
	}
	if len(jobs) == 0 {
		return nil, errors.New("daemon-mix completed no jobs")
	}

	rep := &report{cells: runsByCell(runs)}
	for i, c := range b.w.cells {
		var per sample
		for _, j := range jobs {
			if j.spec == i {
				per = append(per, j.ms)
			}
		}
		rep.cells = append(rep.cells, p50Metric("job_ms "+c.key(), "ms", per))
	}
	rep.e2e = []metric{
		p50Metric("run_ms_p50", "ms", runMs),
		tailMetric("run_ms_tail", "ms", runMs),
		{Name: "sim_msteps_per_s", Unit: "Msteps/s", Value: float64(steps) / 1e6 / wall, N: len(jobs), Stat: "total/wall"},
		{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB(), Stat: "max"},
		p50Metric("job_ms_p50", "ms", jobMs),
		tailMetric("job_ms_tail", "ms", jobMs),
		{Name: "jobs_per_s", Unit: "1/s", Value: float64(len(jobs)) / wall, N: len(jobs), Stat: "count/wall"},
	}
	rep.e2e = append(rep.e2e, ps.e2e()...)
	rep.e2e = append(rep.e2e, metric{Name: "setup_s", Unit: "s", Value: static + setup.median(), N: len(setup), Stat: "p50"})

	tax := 0.0
	if directSum > 0 {
		tax = execSum / directSum
	}
	rep.layer = runLayers(runs, gc, len(jobs))
	rep.layer = append(rep.layer, tr.profileMetrics()...)
	rep.layer = append(rep.layer,
		jobShare("service.submit_frac", submit, tracedJobMs),
		jobShare("service.queue_wait_frac", wait, tracedJobMs),
		jobShare("service.exec_frac", exec, tracedJobMs),
		jobShare("service.stream_frac", stream, tracedJobMs),
		metric{Name: "service.observer_tax", Unit: "ratio", Value: tax, N: len(exec), Stat: "total/total"},
		metric{Name: "service.wal_bytes_per_job", Unit: "B", Value: float64(wal.Size()) / float64(len(jobs)+1), N: len(jobs) + 1, Stat: "mean"},
	)
	rep.layer = append(rep.layer, ps.layer()...)
	rep.layer = append(rep.layer, metric{Name: "trace.overhead_frac", Unit: "frac", Value: overhead(traced, plain), N: len(jobs), Stat: "p50 ratio - 1"})
	return rep, nil
}
