package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"doall"
)

// daemonEnv is an in-process doalld: a Service behind its own HTTP
// handler, and a ServiceClient for it. Over loopback the handler sits
// behind an http.Server on a listener; in-process the client's
// transport calls the handler directly, so requests take the client's
// and the handler's full code path without a socket.
type daemonEnv struct {
	svc    *doall.Service
	srv    *http.Server // nil in-process
	served chan error
	hc     *http.Client
	client *doall.ServiceClient
}

// handlerTransport serves requests by calling the handler directly.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func startDaemon(cfg doall.ServiceConfig, loopback bool) (*daemonEnv, error) {
	svc, err := doall.NewService(cfg)
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	d := &daemonEnv{svc: svc}
	if loopback {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		d.srv = &http.Server{Handler: svc.Handler()}
		d.served = make(chan error, 1)
		d.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		go func() { d.served <- d.srv.Serve(ln) }()
		d.client = &doall.ServiceClient{Base: "http://" + ln.Addr().String(), HTTP: d.hc}
	} else {
		d.hc = &http.Client{Transport: handlerTransport{svc.Handler()}}
		d.client = &doall.ServiceClient{Base: "http://in-process", HTTP: d.hc}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ok, _, err := d.client.Health(ctx); err != nil || !ok {
		d.close()
		return nil, fmt.Errorf("daemon health check: ok=%v err=%v", ok, err)
	}
	return d, nil
}

// close stops the server, waits for it, and closes the service.
func (d *daemonEnv) close() error {
	var err error
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = d.srv.Shutdown(ctx)
		if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		d.hc.CloseIdleConnections()
	}
	if cerr := d.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// predictRec is one /v1/predict round trip.
type predictRec struct {
	q    int // index into the predict script
	mode string
	us   float64
	pred doall.TwinPrediction
}

// predict sends script query i and records the answer; a transport or
// daemon error is a failed operation.
func (b *bench) predict(d *daemonEnv, qs []doall.TwinQuery, i int) (predictRec, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), predictTimeout)
	defer cancel()
	t0 := time.Now()
	res, err := d.client.Predict(ctx, qs[i])
	el := time.Since(t0)
	if err == nil && res.Mode != "twin" && res.Mode != "fallback" {
		err = fmt.Errorf("unknown mode %q", res.Mode)
	}
	if err != nil {
		b.op(fmt.Errorf("predict %+v: %w", qs[i], err))
		return predictRec{}, false
	}
	b.attempted.Add(1)
	return predictRec{q: i, mode: res.Mode, us: float64(el.Nanoseconds()) / 1e3, pred: res.Prediction}, true
}

// predictSummary holds the predict-plane figures of one invocation.
type predictSummary struct {
	twinUs, fallbackMs      sample // /v1/predict latency by answer mode
	directTwinUs, serviceUs sample // in-process Twin.Predict / Service.Predict
	simRuns                 int64
}

// checkPredicts cross-checks every answer outside the timed interval:
// a twin-mode answer must equal Twin.Predict on the same loaded fit, a
// fallback answer must equal a direct unobserved run of the queried
// cell. It also times the two in-process entry points on the twin-mode
// queries.
func (b *bench) checkPredicts(recs []predictRec, qs []doall.TwinQuery, svc *doall.Service) predictSummary {
	var s predictSummary
	twinRef := map[int]doall.TwinPrediction{}
	fallbackRef := map[int]measures{}
	for _, r := range recs {
		q := qs[r.q]
		switch r.mode {
		case "twin":
			s.twinUs = append(s.twinUs, r.us)
			ref, ok := twinRef[r.q]
			if !ok {
				p, err := b.twin.Predict(q)
				if err != nil {
					b.problem(fmt.Errorf("predict %+v: Twin.Predict: %w", q, err))
					continue
				}
				ref, twinRef[r.q] = p, p
				s.directTwinUs = append(s.directTwinUs, timeCalls(func() { b.twin.Predict(q) }))
				s.serviceUs = append(s.serviceUs, timeCalls(func() { svc.Predict(context.Background(), q) }))
			}
			if r.pred != ref {
				b.problem(fmt.Errorf("predict %+v: twin answer %+v != Twin.Predict %+v", q, r.pred, ref))
			}
		case "fallback":
			s.fallbackMs = append(s.fallbackMs, r.us/1e3)
			ref, ok := fallbackRef[r.q]
			if !ok {
				sc := doall.SweepConfig{
					Algos: []string{q.Algo}, Adversary: q.Adversary,
					Ps: []int{q.P}, Ts: []int{q.T}, Ds: []int64{q.D}, Q: q.Q,
				}.Specs()[0]
				res, err := doall.RunScenario(sc)
				if err != nil {
					b.problem(fmt.Errorf("predict %+v: direct run: %w", q, err))
					continue
				}
				ref = measures{float64(res.Sim.Work), float64(res.Sim.Messages), float64(res.Sim.SolvedAt)}
				fallbackRef[r.q] = ref
			}
			got := measures{r.pred.Work, r.pred.Messages, r.pred.SolvedAt}
			if got != ref {
				b.problem(fmt.Errorf("predict %+v: fallback answer %+v != direct run %+v", q, got, ref))
			}
		}
	}
	return s
}

// timeCalls returns the mean latency of fn in microseconds over enough
// calls to rise well above the clock's resolution.
func timeCalls(fn func()) float64 {
	const n = 200
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / n
}

func (s predictSummary) e2e() []metric {
	return []metric{
		p50Metric("predict_twin_us_p50", "us", s.twinUs),
		tailMetric("predict_twin_us_tail", "us", s.twinUs),
		p50Metric("predict_fallback_ms_p50", "ms", s.fallbackMs),
	}
}

func (s predictSummary) layer() []metric {
	n := len(s.twinUs) + len(s.fallbackMs)
	frac := 0.0
	if n > 0 {
		frac = float64(len(s.fallbackMs)) / float64(n)
	}
	return []metric{
		p50Metric("service.predict_us", "us", s.serviceUs),
		{Name: "service.predict_sim_runs", Unit: "count", Value: float64(s.simRuns), Stat: "total"},
		p50Metric("twin.predict_us", "us", s.directTwinUs),
		{Name: "twin.fallback_frac", Unit: "frac", Value: frac, N: n, Stat: "share"},
	}
}
