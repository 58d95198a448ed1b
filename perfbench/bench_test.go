package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"doall"
)

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs a workload at the tiny shape (p=64, one pass, one set-up)
// and returns its final JSON line.
func runTiny(t *testing.T, name string, trace bool, pins map[string]measures) resultLine {
	t.Helper()
	w, err := lookupWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	b, err := newBench(w, 3, 0.001, trace, "..", t.TempDir(), &out)
	if err != nil {
		t.Fatal(err)
	}
	b.reps = 1
	b.pins = pins
	rep, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	b.print(rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if res.Attempted < 1 {
		t.Fatalf("attempted=%d", res.Attempted)
	}
	return res
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every workload, untraced and traced, emits exactly the metrics
// BENCHMARK.json names, each with its declared unit, and passes its own
// checks.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v != %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				res := runTiny(t, name, trace, nil)
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value == 0:
						t.Errorf("end-to-end metric %s reads 0", m.Name)
					}
				}
			})
		}
	}
}

// The output gate accepts the true outputs of every cell and rejects a
// single corrupted recorded value.
func TestGateRejectsCorruptedPin(t *testing.T) {
	w, _ := lookupWorkload("da-tree", true)
	pins := map[string]measures{}
	for _, c := range w.cells {
		sc := w.scenario(c, 3)
		a, err := doall.RunScenarioAvg(sc)
		if err != nil {
			t.Fatal(err)
		}
		pins[c.key()] = measures{a.Work, a.Messages, a.Time}
	}
	if res := runTiny(t, "da-tree", false, pins); !res.Correct || res.Failed != 0 {
		t.Fatalf("true outputs rejected: correct=%v failed=%d", res.Correct, res.Failed)
	}
	bad := w.cells[1].key()
	m := pins[bad]
	m.Messages++
	pins[bad] = m
	if res := runTiny(t, "da-tree", false, pins); res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted value accepted: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// The model counts of a traced run are deterministic.
func TestTracedModelCountsRepeat(t *testing.T) {
	counts := []string{"sim.steps", "sim.messages", "sim.bytes", "core.useful_frac"}
	for _, name := range workloadNames {
		a, b := runTiny(t, name, true, nil), runTiny(t, name, true, nil)
		for _, c := range counts {
			if a.Metrics[c].Value == 0 || a.Metrics[c] != b.Metrics[c] {
				t.Errorf("%s %s: %v then %v", name, c, a.Metrics[c].Value, b.Metrics[c].Value)
			}
		}
	}
}

// The recorded values the da-tree and paran1-build gates use are
// BENCH_2.json's.
func TestPinsMatchBench2(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCH_2.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]measures{}
	for _, c := range rep.Cells {
		recorded[cell{Algo: c.Algo, Adv: c.Adversary, P: c.P, T: c.T, D: c.D}.key()] = measures{c.Work, c.Messages, c.SolvedAt}
	}
	for _, name := range []string{"da-tree", "paran1-build"} {
		w, _ := lookupWorkload(name, false)
		pins, err := loadPins(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(pins) != len(w.cells) {
			t.Errorf("%s: %d pins for %d cells", name, len(pins), len(w.cells))
		}
		for _, c := range w.cells {
			want, ok := recorded[c.key()]
			if !ok || pins[c.key()] != want {
				t.Errorf("%s %s: pinned %+v, BENCH_2.json %+v (present=%v)", name, c.key(), pins[c.key()], want, ok)
			}
		}
	}
	for _, name := range []string{"fault-mix", "daemon-mix"} {
		w, _ := lookupWorkload(name, false)
		pins, _ := loadPins(name)
		for _, c := range w.cells {
			if _, ok := pins[c.key()]; !ok {
				t.Errorf("%s: no pinned value for %s", name, c.key())
			}
		}
	}
}

func parseReport(data []byte) (doall.SweepReport, error) {
	var rep doall.SweepReport
	err := json.Unmarshal(data, &rep)
	return rep, err
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// The profile decoder attributes CPU time to the leaf function's
// package.
func TestSelfTimeByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	st := selfTime{}
	if err := st.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if st.total() == 0 || st["other"] < st.total()/2 {
		t.Fatalf("spin in package main not attributed to other: %v", st)
	}
	for name, want := range map[string]string{
		"doall/internal/tree.(*Tree).PropagateUp":   "tree",
		"math/rand.(*Rand).Int63":                   "rand",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/atomic.Load":              "runtime",
		"doall/internal/sim.(*Engine).tick.func1":   "sim",
		"doall/internal/bitset.Union[go.shape.int]": "bitset",
		"doall/internal/service.(*Service).Predict": "service",
		"doall/internal/adversary.(*Random).Delay":  "adversary",
		"main.spin": "other",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{5: 100, 10: 100, 11: 50, 20: 50, 36: 72, 100: 90, 1000: 99} {
		if got := tailPct(n); got != want {
			t.Errorf("tailPct(%d) = %d, want %d", n, got, want)
		}
	}
}
