// Command perfbench is the repository benchmark. It runs one named
// workload in a single process, checks the workload's outputs against
// an independent oracle, and prints every metric by name with its unit.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with -trace 1 they are
// the per-layer ones, taken from a run that records spans around every
// layer call and writes them out at exit (JSONL and Chrome trace).
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench -workload exec-scc-pressure -seed 1 -seconds 20 -trace 0
//	perfbench -workload advise-mix -seed 1 -seconds 20 -trace 1 -out .bench_build/trace
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Load is sized for a 2-core host: at most 2 exec workers, 2 client
// connections and 2 sweep pool workers, and GOMAXPROCS capped to match.
const (
	maxProcs    = 2
	execWorkers = 2
	clients     = 2
	poolWorkers = 2
	// A workload sets up at least setupReps times and keeps repeating
	// until setupBudget is spent (at most maxSetupReps times); setup_s
	// is the median.
	setupReps    = 5
	setupBudget  = 250 * time.Millisecond
	maxSetupReps = 200
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports
// all of them. The two latency slots and the rate map onto each
// workload's own user-visible costs (see INTERACTIONS.json):
//
//	exec-*      primary = MRD leg JCT, secondary = LRU leg JCT, rate = tasks/s
//	advise-mix  primary = advance p50, secondary = advance p99, rate = advice/s
//	sweep-grid  primary = cold pass,   secondary = warm pass,   rate = grid points/s (cold)
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"primary_ms", "ms"},
	{"secondary_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the single-layer metrics of the traced run. A workload
// that does not run a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"exec.boundary_ms", "ms"},
	{"exec.wave_ms", "ms"},
	{"exec.task_busy_ms", "ms"},
	{"exec.worker_util", "ratio"},
	{"exec.stage_skew", "ratio"},
	{"exec.hit_ratio", "ratio"},
	{"exec.promotes", "count"},
	{"exec.recomputes", "count"},
	{"exec.evictions", "count"},
	{"exec.purged", "count"},
	{"exec.prefetch_issued", "count"},
	{"exec.prefetch_accuracy", "ratio"},
	{"exec.spill_mb", "MB"},
	{"exec.shuffle_mb", "MB"},
	{"exec.remote_fetches", "count"},
	{"exec.lineage_recomputes", "count"},
	{"exec.alloc_mb", "MB"},
	{"exec.gc_cycles", "count"},
	{"exec.gc_cpu_frac", "ratio"},
	{"exec.encode_ns_per_row", "ns"},
	{"exec.decode_ns_per_row", "ns"},
	{"service.create_ms", "ms"},
	{"service.compute_p50_us", "us"},
	{"service.compute_p99_us", "us"},
	{"service.transport_us", "us"},
	{"service.decisions_per_advance", "count"},
	{"service.alloc_kb_per_advance", "KB"},
	{"service.wire_errors", "count"},
	{"workload.build_ms", "ms"},
	{"refdist.profile_ms", "ms"},
	{"core.table_refresh_us", "us"},
	{"sim.point_p50_ms", "ms"},
	{"sim.point_p99_ms", "ms"},
	{"experiments.points_simulated", "count"},
	{"experiments.store_load_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"experiments.store_bytes", "bytes"},
	{"experiments.pool_util", "ratio"},
	{"obs.trace_overhead", "ratio"},
}

// workloads maps each benchmark workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"exec-scc-pressure": func(b *bench) error { return runExec(b, sccPressure) },
	"exec-km-fits":      func(b *bench) error { return runExec(b, kmFits) },
	"advise-mix":        runAdvise,
	"sweep-grid":        runSweep,
}

// bench is one benchmark run: its inputs, its budget, the span recorder
// of a traced run, and everything measured.
type bench struct {
	seed   int64
	budget time.Duration
	traced bool    // per-layer run: spans on, per-layer metrics out
	tr     *tracer // span recorder of the traced phase
	rss    *rssSampler
	// rssWindows says what the workload's resident-set windows span.
	rssWindows string
	workdir    string // scratch space inside the checkout

	attempted, failed atomic.Int64

	values map[string]float64
	notes  map[string]string // sample counts and context per metric
}

// set records a metric value with a note (typically its sample count).
func (b *bench) set(name string, v float64, note string) {
	b.values[name] = v
	if note != "" {
		b.notes[name] = note
	}
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(ok bool) {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
	}
}

// ops counts n attempted operations of which bad failed.
func (b *bench) ops(n, bad int64) {
	b.attempted.Add(n)
	b.failed.Add(bad)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: exec-scc-pressure, exec-km-fits, advise-mix, sweep-grid")
	seed := flag.Int64("seed", 0, "workload seed (reaches the program only as workload.Params.Seed)")
	seconds := flag.Float64("seconds", 10, "how long the timed part measures")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/trace", "directory for the traced run's span exports")
	workdir := flag.String("workdir", ".bench_build/tmp", "scratch directory for run-cache stores")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if runtime.NumCPU() < maxProcs {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	res, err := measure(*name, run, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, *out, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs one workload and assembles its result. It prints the
// environment and every metric, with its note, before returning.
func measure(name string, run func(*bench) error, seed int64, budget time.Duration, traced bool, out, workdir string) (result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, budget: budget, traced: traced, workdir: dir,
		values: map[string]float64{}, notes: map[string]string{}}
	if traced {
		b.tr = newTracer()
	}
	if b.rss, err = startRSS(); err != nil {
		return result{}, err
	}
	defer b.rss.close()
	fmt.Printf("env: workload=%s seed=%d seconds=%.1f trace=%t nproc=%d GOMAXPROCS=%d go=%s exec_workers=%d clients=%d pool_workers=%d\n",
		name, seed, budget.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		execWorkers, clients, poolWorkers)
	steal0, t0 := hostSteal(), time.Now()
	if err := run(b); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	wall := time.Since(t0).Seconds()
	steal := hostSteal() - steal0
	fmt.Printf("host: %.2f s of CPU stolen by the hypervisor in %.1f s (%.1f%% of %d CPUs)\n",
		steal, wall, 100*ratio(steal, wall*float64(runtime.NumCPU())), runtime.NumCPU())
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	peaks := b.rss.peaks
	if len(peaks) == 0 {
		return result{}, fmt.Errorf("%s: no resident-set window closed", name)
	}
	b.set("peak_rss_mb", median(peaks), fmt.Sprintf("median window peak, %s %s; VmHWM %.1f",
		nSamples(len(peaks)), b.rssWindows, rss))
	if traced {
		if err := b.tr.export(out, fmt.Sprintf("%s-seed%d", name, seed)); err != nil {
			return result{}, err
		}
		b.tr.printSelfTimes()
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]metricOut{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		v := b.values[d.name]
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.4f %-6s %s\n", d.name, v, d.unit, b.notes[d.name])
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-32s %14.4f %-6s %d failed of %d attempted\n", "error_rate", errRate, "ratio", res.Failed, res.Attempted)
	return res, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
