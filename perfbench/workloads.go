package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"doall"
)

// cell is one scenario shape of a workload script. Label, when set,
// names a long adversary expression in keys and reports.
type cell struct {
	Algo   string
	Adv    string
	Label  string
	P, T   int
	D      int64
	Shards int
}

func (c cell) key() string {
	adv := c.Adv
	if c.Label != "" {
		adv = c.Label
	}
	return fmt.Sprintf("%s|%s|p=%d|t=%d|d=%d", c.Algo, adv, c.P, c.T, c.D)
}

// workload is a fixed set of cells. The canonical order is the order
// listed; set-up warms the engine on the first cell, so that cell is
// the same at every seed. The timed loop replays the cells in an order
// drawn from the workload seed.
type workload struct {
	name   string
	cells  []cell
	trials int  // runs per cell (sweep) — daemon jobs are single runs
	daemon bool // driven through the service instead of directly
	// passSeconds is how long one pass over the cells took on the
	// reference machine (2-vCPU Xeon, Go 1.24) when the benchmark was
	// defined. A run of S seconds makes round(S/passSeconds) whole
	// passes, so every run of a workload at the same S measures the same
	// operations whatever the program's speed: the mix behind each
	// percentile, and the percentile a tail names, stay fixed.
	passSeconds float64
}

// passes is the number of whole passes a run of the given length makes.
func (w workload) passes(seconds float64) int {
	return max(1, int(math.Round(seconds/w.passSeconds)))
}

var workloadNames = []string{"da-tree", "paran1-build", "fault-mix", "daemon-mix"}

// lookupWorkload returns a named workload at full size, or at a tiny
// shape (p=64) for the benchmark's own tests.
func lookupWorkload(name string, tiny bool) (workload, error) {
	// da-tree runs at p=1024: at p=4096 (tree and bitset 84% of CPU
	// rather than 57%) a run's time swung with the host's memory
	// contention, 0.55–1.17 s for one cell, and the median of a 20 s run
	// moved 0.2–0.3 between runs.
	dp, p, t := 1024, 4096, 1<<18
	fp, ft := 1024, 1<<18
	jp, jt := 1024, 1<<16
	if tiny {
		dp, p, t, fp, ft, jp, jt = 64, 64, 1024, 64, 1024, 64, 1024
	}
	switch name {
	case "da-tree":
		return workload{name: name, trials: 3, cells: fairCells("DA", dp, t), passSeconds: 0.85}, nil
	case "paran1-build":
		return workload{name: name, trials: 3, cells: fairCells("PaRan1", p, t), passSeconds: 3.9}, nil
	case "fault-mix":
		var cs []cell
		restart := earlyRestarts(8)
		for _, algo := range []string{"DA", "PaRan1"} {
			cs = append(cs,
				cell{Algo: algo, Adv: "random", P: fp, T: ft, D: 8, Shards: 2},
				cell{Algo: algo, Adv: restart, Label: "restarting(omitting(random),crash=1..63@i*d)", P: fp, T: ft, D: 8, Shards: 2})
		}
		return workload{name: name, trials: 3, cells: cs, passSeconds: 4.1}, nil
	case "daemon-mix":
		var cs []cell
		for _, algo := range []string{"DA", "PaRan1"} {
			for _, adv := range []string{"fair", "crashing", "restarting(omitting(fair))", "random"} {
				cs = append(cs, cell{Algo: algo, Adv: adv, P: jp, T: jt, D: 8})
			}
		}
		return workload{name: name, trials: 1, cells: cs, daemon: true, passSeconds: 2.2}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// earlyRestarts is restarting(omitting(random)) with processors 1..63
// crashing at i·d and reviving 4·d later, all before the solution
// (σ ≈ 700 at the fault-mix shape). The flat restarting default crashes
// processors up to (p−1)/2 at i·d, until long after σ; in about 40% of
// trials a processor then revives after every other one has halted and
// redoes all t tasks alone, which makes a run's cost bimodal (0.33 s or
// 1.3 s) on the workload seed.
func earlyRestarts(d int64) string {
	var b strings.Builder
	b.WriteString("restarting(omitting(random)")
	for i := int64(1); i <= 63; i++ {
		fmt.Fprintf(&b, ",crash=%d@%d", i, i*d)
	}
	b.WriteString(")")
	return b.String()
}

func fairCells(algo string, p, t int) []cell {
	var cs []cell
	for _, d := range []int64{1, 8, 64} {
		cs = append(cs, cell{Algo: algo, Adv: "fair", P: p, T: t, D: d})
	}
	return cs
}

// scriptCell is a cell with the scenario a run executes: per-cell seeds
// come from doall's own cell-seed derivation, so seed 0 reproduces the
// recorded BENCH grids.
type scriptCell struct {
	cell
	sc doall.Scenario
}

func (w workload) scenario(c cell, seed int64) doall.Scenario {
	sc := doall.SweepConfig{
		Algos: []string{c.Algo}, Adversary: c.Adv,
		Ps: []int{c.P}, Ts: []int{c.T}, Ds: []int64{c.D},
		BaseSeed: seed, Shards: c.Shards,
	}.Specs()[0]
	sc.Trials = w.trials
	return sc
}

// script returns the cells in the seed's replay order.
func (w workload) script(seed int64) []scriptCell {
	order := rand.New(rand.NewSource(seed)).Perm(len(w.cells))
	out := make([]scriptCell, len(order))
	for i, j := range order {
		out[i] = scriptCell{cell: w.cells[j], sc: w.scenario(w.cells[j], seed)}
	}
	return out
}

// sweepConfig covers every shape of the workload, for the memory
// pre-flight.
func (w workload) sweepConfig(workers int) doall.SweepConfig {
	cfg := doall.SweepConfig{Workers: workers}
	for _, c := range w.cells {
		cfg.Algos = addOnce(cfg.Algos, c.Algo)
		cfg.Adversaries = addOnce(cfg.Adversaries, c.Adv)
		cfg.Ps = addOnce(cfg.Ps, c.P)
		cfg.Ts = addOnce(cfg.Ts, c.T)
		cfg.Ds = addOnce(cfg.Ds, c.D)
	}
	return cfg
}

func addOnce[T comparable](s []T, v T) []T {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// predictScript is the /v1/predict script every workload replays: 36
// fair-family DA/PaRan1 shapes drawn from the seed inside the
// calibrated envelope of TWIN_FIT.json (p 16…65536, t 2^8…2^22, d 1…64),
// and, as every tenth query, one of four fixed small shapes (p < 16)
// outside every envelope, which the daemon answers by simulating it.
// The small shapes do not depend on the seed, so the fallback latency
// compares like with like across seeds.
func predictScript(seed int64) []doall.TwinQuery {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	algos := []string{"DA", "PaRan1"}
	small := []doall.TwinQuery{
		{Algo: "DA", Adversary: "fair", P: 8, T: 64, D: 2},
		{Algo: "PaRan1", Adversary: "fair", P: 8, T: 64, D: 2},
		{Algo: "DA", Adversary: "fair", P: 12, T: 128, D: 4},
		{Algo: "PaRan1", Adversary: "fair", P: 12, T: 128, D: 4},
	}
	qs := make([]doall.TwinQuery, 40)
	for i := range qs {
		if i%10 == 9 {
			qs[i] = small[i/10]
			continue
		}
		algo := algos[r.Intn(len(algos))]
		qs[i] = doall.TwinQuery{Algo: algo, Adversary: "fair", P: 1 << (4 + r.Intn(13)), T: 1 << (8 + r.Intn(15)), D: int64(1) << r.Intn(7)}
	}
	return qs
}
