package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"doall"
)

// The model-output gate. At seed 0 every cell's trial-averaged work,
// messages and solved_at must equal a recorded value: BENCH_2.json's
// for the da-tree and paran1-build cells, and values pinned from the
// commit that introduced the benchmark for fault-mix and daemon-mix
// (pins.json). At every seed every run must also satisfy the model's
// invariants (checkRun).

//go:embed pins.json
var pinsJSON []byte

// measures are a cell's trial-averaged model outputs.
type measures struct {
	Work     float64 `json:"work"`
	Messages float64 `json:"messages"`
	SolvedAt float64 `json:"solved_at"`
}

type pinFile struct {
	Note      string                         `json:"note"`
	Workloads map[string]map[string]measures `json:"workloads"`
}

// loadPins returns the recorded outputs of a workload's cells, keyed by
// cell.key(); nil when none are recorded.
func loadPins(workload string) (map[string]measures, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pf.Workloads[workload], nil
}

// checkPinned compares a cell's outputs with its recorded value. A cell
// with no recorded value passes: only seed 0 has pins.
func checkPinned(pins map[string]measures, key string, got measures) error {
	want, ok := pins[key]
	if !ok {
		return nil
	}
	if got != want {
		return fmt.Errorf("cell %s: got work=%v messages=%v solved_at=%v, recorded work=%v messages=%v solved_at=%v",
			key, got.Work, got.Messages, got.SolvedAt, want.Work, want.Messages, want.SolvedAt)
	}
	return nil
}

// checkRun asserts what every correct run satisfies at any seed: the
// problem is solved, every task was performed, no processor halted
// before the solution, and work is at least the number of tasks.
func checkRun(res *doall.Result, t int) error {
	switch {
	case !res.Solved:
		return fmt.Errorf("not solved")
	case res.HaltedEarly:
		return fmt.Errorf("a processor halted before the problem was solved")
	case res.Work < int64(t):
		return fmt.Errorf("work %d < t=%d", res.Work, t)
	}
	for z, at := range res.FirstDoneAt {
		if at < 0 {
			return fmt.Errorf("task %d never performed", z)
		}
	}
	return nil
}
