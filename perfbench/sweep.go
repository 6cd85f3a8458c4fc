package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/experiments"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/workload"
)

// warmPerCold is how many warm passes replay each cold pass's store: a
// warm pass is ~20x cheaper, so it needs more samples for a steady
// median.
const warmPerCold = 5

// sweepConfig is the fixed 276-point grid: 23 workloads x {LRU, LRC,
// MRD} x fractions {0.3, 0.6} x the seed x {healthy, crash}.
func sweepConfig(seed int64) experiments.SweepConfig {
	return experiments.SweepConfig{
		Workloads: workload.Names(),
		Seeds:     []int64{seed},
		Clusters:  []cluster.Config{cluster.Main()},
		Fractions: []float64{0.3, 0.6},
		Policies:  []experiments.PolicySpec{experiments.SpecLRU, experiments.SpecLRC, experiments.SpecMRD},
		Presets:   []string{"healthy", "crash"},
		Repls:     []int{1},
	}
}

// sweepPass is one timed pass over the grid: open the store, run the
// sweep on the pool, render the report, close the store.
type sweepPass struct {
	wall, open, run, render time.Duration
	res                     *experiments.SweepResult
	html                    []byte
	storeBytes              int64
}

// runPass runs one pass against the store in dir with an empty memo, so
// every point is served by the store or simulated. It collects the
// previous pass's garbage and returns it to the kernel first, so each
// pass starts from the same heap; a cold pass is a resident-set window.
func runPass(tr *tracer, rss *rssSampler, dir string, cfg experiments.SweepConfig, kind string) (sweepPass, error) {
	var p sweepPass
	experiments.ResetRunCache()
	debug.FreeOSMemory()
	if kind == "cold" {
		rss.begin()
		defer rss.end()
	}
	root := tr.start(trace.SpanContext{}, "bench.pass")
	defer root.EndWith(kind)
	t0 := time.Now()
	sp := tr.start(root.Context(), "experiments.store_open")
	store, err := experiments.OpenCacheStore(dir)
	sp.End()
	if err != nil {
		return p, err
	}
	p.open = time.Since(t0)
	experiments.SetCacheStore(store)
	t1 := time.Now()
	sp = tr.start(root.Context(), "experiments.run_sweep")
	p.res, err = experiments.RunSweep(cfg, poolWorkers)
	sp.End()
	p.run = time.Since(t1)
	experiments.SetCacheStore(nil)
	if err != nil {
		store.Close()
		return p, err
	}
	t1 = time.Now()
	sp = tr.start(root.Context(), "experiments.render")
	p.html = experiments.RenderSweepHTML(p.res)
	sp.End()
	p.render = time.Since(t1)
	sp = tr.start(root.Context(), "experiments.store_close")
	err = store.Close()
	sp.End()
	p.wall = time.Since(t0)
	if err != nil {
		return p, err
	}
	fi, err := os.Stat(filepath.Join(dir, experiments.CacheFileName))
	if err != nil {
		return p, err
	}
	p.storeBytes = fi.Size()
	return p, nil
}

// sweepPhase is what one phase of cold and warm passes measured.
type sweepPhase struct {
	cold, warm []sweepPass
}

func msOf(ps []sweepPass, f func(sweepPass) time.Duration) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, ms(f(p)))
	}
	return out
}

func runSweep(b *bench) error {
	cfg := sweepConfig(b.seed)
	grid := cfg.Grid()
	st, err := timedSetup(b, func(parent trace.SpanContext, st *setupTimes) (func(), error) {
		if _, err := st.buildSpecs(b.tr, parent, cfg.Workloads, workload.Params{Seed: b.seed}); err != nil {
			return nil, err
		}
		sp := b.tr.start(parent, "experiments.store_open")
		defer sp.End()
		dir, err := os.MkdirTemp(b.workdir, "setup-")
		if err != nil {
			return nil, err
		}
		store, err := experiments.OpenCacheStore(dir)
		if err != nil {
			return nil, err
		}
		return func() { os.RemoveAll(dir) }, store.Close()
	})
	if err != nil {
		return err
	}
	b.rssWindows = "cold passes"
	fmt.Printf("sweep: %d points, %d pool workers, %d warm passes per cold pass, seed %d\n",
		len(grid), poolWorkers, warmPerCold, b.seed)

	// check counts a pass's grid points as operations: all of them fail
	// when the pass errs, its row count is wrong, or its report differs
	// from want (a cold pass: the first cold pass's report; a warm pass:
	// its own cold pass's).
	check := func(p sweepPass, err error, want []byte, kind string) bool {
		n := int64(len(grid))
		switch {
		case err != nil:
			fmt.Printf("sweep: %s pass failed: %v\n", kind, err)
		case len(p.res.Rows) != len(grid):
			fmt.Printf("sweep: %s pass produced %d rows, want %d\n", kind, len(p.res.Rows), len(grid))
		case want != nil && !bytes.Equal(p.html, want):
			fmt.Printf("sweep: %s pass report differs from the first cold pass's\n", kind)
		case kind == "warm" && p.res.Stats.Simulated != 0:
			fmt.Printf("sweep: warm pass simulated %d points\n", p.res.Stats.Simulated)
		default:
			b.ops(n, 0)
			return true
		}
		b.ops(n, n)
		return false
	}
	phase := func(budget time.Duration, tr *tracer) (sweepPhase, error) {
		var ph sweepPhase
		start := time.Now()
		for i := 0; i == 0 || time.Since(start) < budget; i++ {
			dir, err := os.MkdirTemp(b.workdir, "store-")
			if err != nil {
				return ph, err
			}
			// Every cold pass must render the first cold pass's report.
			var want []byte
			if len(ph.cold) > 0 {
				want = ph.cold[0].html
			}
			cold, err := runPass(tr, b.rss, dir, cfg, "cold")
			if check(cold, err, want, "cold") {
				for w := 0; w < warmPerCold; w++ {
					warm, err := runPass(tr, b.rss, dir, cfg, "warm")
					if check(warm, err, cold.html, "warm") {
						warm.res, warm.html = nil, nil
						ph.warm = append(ph.warm, warm)
					}
				}
				// Only the first cold pass keeps its rows (the per-point
				// probe replays them), so memory does not grow with the
				// number of passes a run fits in.
				if len(ph.cold) > 0 {
					cold.res, cold.html = nil, nil
				}
				ph.cold = append(ph.cold, cold)
			}
			if err := os.RemoveAll(dir); err != nil {
				return ph, err
			}
		}
		if len(ph.cold) == 0 || len(ph.warm) == 0 {
			return ph, fmt.Errorf("no cold and warm pass succeeded")
		}
		return ph, nil
	}
	wall := func(p sweepPass) time.Duration { return p.wall }

	if !b.traced {
		ph, err := phase(b.budget, nil)
		if err != nil {
			return err
		}
		cold := median(msOf(ph.cold, wall))
		b.set("primary_ms", cold, "sweep_cold "+nSamples(len(ph.cold)))
		b.set("secondary_ms", median(msOf(ph.warm, wall)), "sweep_warm "+nSamples(len(ph.warm)))
		b.set("throughput_per_s", ratio(float64(len(grid)), cold/1e3), "grid points/s, cold")
		return nil
	}

	plain, err := phase(b.budget/2, nil)
	if err != nil {
		return err
	}
	traced, err := phase(b.budget/2, b.tr)
	if err != nil {
		return err
	}
	b.set("obs.trace_overhead", ratio(median(msOf(traced.cold, wall)), median(msOf(plain.cold, wall))),
		fmt.Sprintf("traced/untraced cold pass, n=%d/%d", len(traced.cold), len(plain.cold)))
	b.set("experiments.store_load_ms", median(msOf(plain.warm, func(p sweepPass) time.Duration { return p.open })),
		nSamples(len(plain.warm))+" warm opens")
	all := append(append([]sweepPass(nil), plain.cold...), plain.warm...)
	b.set("experiments.render_ms", median(msOf(all, func(p sweepPass) time.Duration { return p.render })),
		nSamples(len(all)))
	b.set("experiments.points_simulated", float64(plain.cold[0].res.Stats.Simulated), "first cold pass")
	b.set("experiments.store_bytes", float64(plain.cold[0].storeBytes), experiments.CacheFileName)

	// Per-point simulation cost: every grid point through
	// RunCachedFault, one at a time, with an empty memo and no store.
	experiments.ResetRunCache()
	var points []float64
	for _, row := range plain.cold[0].res.Rows {
		pt := row.Point
		spec, err := workload.Build(pt.Workload, workload.Params{Seed: pt.Seed})
		if err != nil {
			return err
		}
		sp := b.tr.start(trace.SpanContext{}, "sim.point")
		t0 := time.Now()
		_, err = experiments.RunCachedFault(spec, pt.Cluster.WithCache(row.CachePerNode), pt.Policy, pt.Preset, pt.Repl)
		points = append(points, ms(time.Since(t0)))
		sp.EndWith(pt.Workload)
		if err != nil {
			return err
		}
	}
	experiments.ResetRunCache()
	n := nSamples(len(points))
	b.set("sim.point_p50_ms", quantile(points, 0.5), n)
	b.set("sim.point_p99_ms", quantile(points, 0.99), n)
	busy := 0.0
	for _, p := range points {
		busy += p
	}
	runMs := median(msOf(plain.cold, func(p sweepPass) time.Duration { return p.run }))
	b.set("experiments.pool_util", ratio(busy, float64(poolWorkers)*runMs), "serial point time / (workers x cold sweep)")
	b.reportSetupLayers(st)

	specs := make([]*workload.Spec, 0, len(cfg.Workloads))
	for _, name := range cfg.Workloads {
		spec, err := workload.Build(name, workload.Params{Seed: b.seed})
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	probeTableRefresh(b, trace.SpanContext{}, specs)
	return nil
}
