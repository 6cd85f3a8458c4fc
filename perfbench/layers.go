package main

import (
	"fmt"
	"runtime"
	"time"

	"mrdspark/internal/core"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/refdist"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

// setupTimes is the set-up cost every workload pays and reports: the
// workload layer's DAG builds and the refdist layer's profiling, per
// call.
type setupTimes struct {
	buildMs, profileMs []float64
}

// buildSpecs builds the named workloads at params and profiles each
// DAG, timing both layers per call under parent.
func (st *setupTimes) buildSpecs(tr *tracer, parent trace.SpanContext, names []string, p workload.Params) ([]*workload.Spec, error) {
	specs := make([]*workload.Spec, len(names))
	for i, name := range names {
		sp := tr.start(parent, "workload.build")
		t0 := time.Now()
		spec, err := workload.Build(name, p)
		st.buildMs = append(st.buildMs, ms(time.Since(t0)))
		sp.EndWith(name)
		if err != nil {
			return nil, err
		}
		sp = tr.start(parent, "refdist.profile")
		t0 = time.Now()
		refdist.FromGraph(spec.Graph)
		st.profileMs = append(st.profileMs, ms(time.Since(t0)))
		sp.EndWith(name)
		specs[i] = spec
	}
	return specs, nil
}

// timedSetup runs one workload's set-up repeatedly — at least setupReps
// times, and on until setupBudget is spent — and reports the median as
// setup_s: set-up is cheap next to the timed part, so one repetition
// would mostly measure timer and scheduler noise. fn performs one
// complete set-up, recording its layer timings into st, and returns a
// teardown; each repetition is torn down before the next starts, and
// the last one's state is what the workload keeps.
func timedSetup(b *bench, fn func(parent trace.SpanContext, st *setupTimes) (teardown func(), err error)) (setupTimes, error) {
	var st setupTimes
	var secs []float64
	var spent time.Duration
	var pending func()
	for rep := 0; rep < setupReps || (spent < setupBudget && rep < maxSetupReps); rep++ {
		if pending != nil {
			pending()
		}
		runtime.GC()
		sp := b.tr.start(trace.SpanContext{}, "bench.setup")
		t0 := time.Now()
		teardown, err := fn(sp.Context(), &st)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		secs, spent, pending = append(secs, d.Seconds()), spent+d, teardown
	}
	b.set("setup_s", median(secs), nSamples(len(secs)))
	return st, nil
}

// reportSetupLayers sets the workload and refdist per-call medians.
func (b *bench) reportSetupLayers(st setupTimes) {
	b.set("workload.build_ms", median(st.buildMs), nSamples(len(st.buildMs)))
	b.set("refdist.profile_ms", median(st.profileMs), nSamples(len(st.profileMs)))
}

// probeTableRefresh times core.Manager's MRD_Table refresh — OnStageStart
// with prefetch and purge off, so nothing but the table recomputation
// runs — at every executed stage of each spec's canonical schedule.
func probeTableRefresh(b *bench, parent trace.SpanContext, specs []*workload.Spec) {
	var samples []float64
	for _, spec := range specs {
		g := spec.Graph
		m := core.NewManager(g, core.NewRecurringProfiler(refdist.FromGraph(g)),
			core.Options{DisablePrefetch: true, DisablePurge: true})
		sp := b.tr.start(parent, "core.table_refresh")
		for _, st := range service.Schedule(g) {
			if st.Stage < 0 {
				m.OnJobSubmit(g.Jobs[st.Job])
				continue
			}
			t0 := time.Now()
			m.OnStageStart(st.Stage, st.Job)
			samples = append(samples, us(time.Since(t0)))
		}
		sp.EndWith(spec.Name)
	}
	b.set("core.table_refresh_us", median(samples), nSamples(len(samples)))
}
