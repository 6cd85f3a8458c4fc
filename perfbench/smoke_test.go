package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// program against.
type benchmarkFile struct {
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

// TestSmoke runs every workload briefly, untraced and traced, and fails
// on any correctness-gate miss or any metric BENCHMARK.json names that
// the run does not report with the same unit. Run it from this
// directory with `go test -short .`; without -short each phase runs for
// a second instead of a single unit of work.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(listed)
	if got := workloadNames(); !slices.Equal(got, listed) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", listed, got)
	}
	budget := time.Second
	if testing.Short() {
		budget = time.Millisecond
	}
	for _, name := range listed {
		for _, traced := range []bool{false, true} {
			res, err := measure(name, workloads[name], 7, budget, traced, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%t: metric %s unit %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}
