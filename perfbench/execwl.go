package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/exec"
	"mrdspark/internal/experiments"
	"mrdspark/internal/obs"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
	"mrdspark/internal/workload"
)

// execShape is one executed-plane workload: a generator run on
// internal/exec with a per-worker cache and a data size.
type execShape struct {
	workload string // generator name
	cache    int64  // per-worker memory store
	rows     int    // generated rows per source partition
}

var (
	// sccPressure: shuffle-heavy SCC whose working set far exceeds the
	// cache, so the policy decides hits, spills and promotes.
	sccPressure = execShape{workload: "SCC", cache: 256 * cluster.MB, rows: 128}
	// kmFits: narrow-operator-heavy KM where everything fits, so
	// eviction, spill and disk are bypassed and engine compute dominates.
	kmFits = execShape{workload: "KM", cache: 8192 * cluster.MB, rows: 2048}
)

// execPolicies are the two legs of every pair, MRD first.
var execPolicies = []experiments.PolicySpec{experiments.SpecMRD, experiments.SpecLRU}

// legResult is one executed job under one policy.
type legResult struct {
	policy string
	jct    time.Duration
	res    exec.Result
	rt     runtimeDelta
	probe  *execProbe // nil when untraced
}

// execPhase is the legs run in one phase, keyed by policy name.
type execPhase map[string][]legResult

func (p execPhase) jctMs(policy string) []float64 {
	var out []float64
	for _, l := range p[policy] {
		out = append(out, ms(l.jct))
	}
	return out
}

func runExec(b *bench, shape execShape) error {
	params := workload.Params{Seed: b.seed, DataRows: shape.rows}
	cfg := func(p experiments.PolicySpec) exec.Config {
		return exec.Config{Workers: execWorkers, CacheBytes: shape.cache, Policy: p}
	}
	var spec *workload.Spec
	st, err := timedSetup(b, func(parent trace.SpanContext, st *setupTimes) (func(), error) {
		specs, err := st.buildSpecs(b.tr, parent, []string{shape.workload}, params)
		if err != nil {
			return nil, err
		}
		spec = specs[0]
		for _, p := range execPolicies {
			sp := b.tr.start(parent, "exec.new")
			_, err := exec.New(spec, cfg(p))
			sp.EndWith(p.Name())
			if err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	b.rssWindows = "legs"
	fmt.Printf("exec: %s, %d workers x %.0fMB cache, %d rows/partition, seed %d\n",
		shape.workload, execWorkers, float64(shape.cache)/float64(cluster.MB), shape.rows, b.seed)

	// The oracle: in-process service.Replay over the same graph, policy
	// and cluster shape. Every leg's per-stage advice must match it.
	oracle := map[string][]string{}
	for _, p := range execPolicies {
		a, err := service.NewAdvisor(spec.Graph, service.AdvisorConfig{Nodes: execWorkers, CacheBytes: shape.cache, Policy: p})
		if err != nil {
			return err
		}
		advs, err := service.Replay(a)
		if err != nil {
			return err
		}
		for _, adv := range advs {
			oracle[p.Name()] = append(oracle[p.Name()], adv.Fingerprint())
		}
	}

	var wantDigest uint64
	haveDigest := false
	// leg executes one fresh engine; building it is not part of the JCT.
	// A leg that fails counts as a failed operation and is left out of
	// the timings; ok is false for it.
	leg := func(p experiments.PolicySpec, traced bool) (l legResult, ok bool, err error) {
		e, err := exec.New(spec, cfg(p))
		if err != nil {
			return legResult{}, false, err
		}
		var tr *tracer
		var probe *execProbe
		if traced {
			tr = b.tr
			probe = &execProbe{tr: tr, cursor: make([]int64, execWorkers)}
			bus := obs.New()
			bus.Subscribe(probe.observe)
			e.AttachBus(bus)
		}
		runtime.GC()
		b.rss.begin()
		root := tr.start(trace.SpanContext{}, "bench.leg")
		sp := tr.start(root.Context(), "exec.run")
		probe.begin(sp.Context())
		rt0 := readRuntime()
		t0 := time.Now()
		res, err := e.Run()
		jct := time.Since(t0)
		rt := rt0.to(readRuntime())
		b.rss.end()
		sp.EndWith(p.Name())
		root.EndWith(p.Name())
		if err != nil {
			b.op(false)
			fmt.Printf("exec: %s leg failed: %v\n", p.Name(), err)
			return legResult{}, false, nil
		}
		// Every leg of a workload and seed must produce the same output.
		if !haveDigest {
			wantDigest, haveDigest = res.OutputDigest, true
		}
		if res.OutputDigest != wantDigest {
			b.op(false)
			fmt.Printf("exec: %s leg output digest %#x != %#x\n", p.Name(), res.OutputDigest, wantDigest)
			return legResult{}, false, nil
		}
		if err := sameAdvice(res.History, oracle[p.Name()]); err != nil {
			b.op(false)
			fmt.Printf("exec: %s leg %v\n", p.Name(), err)
			return legResult{}, false, nil
		}
		b.op(true)
		// The per-stage advice log has been checked; dropping it keeps
		// memory from growing with the number of legs a run fits in.
		res.History = nil
		return legResult{policy: p.Name(), jct: jct, res: res, rt: rt, probe: probe}, true, nil
	}
	// phase runs MRD/LRU pairs until the budget is spent, alternating
	// which policy goes first so drift hits both legs alike.
	phase := func(budget time.Duration, traced bool) (execPhase, error) {
		out := execPhase{}
		start := time.Now()
		for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
			order := execPolicies
			if pair%2 == 1 {
				order = []experiments.PolicySpec{execPolicies[1], execPolicies[0]}
			}
			for _, p := range order {
				l, ok, err := leg(p, traced)
				if err != nil {
					return nil, err
				}
				if ok {
					out[l.policy] = append(out[l.policy], l)
				}
			}
		}
		for _, p := range execPolicies {
			if len(out[p.Name()]) == 0 {
				return nil, fmt.Errorf("no %s leg succeeded", p.Name())
			}
		}
		return out, nil
	}

	mrd, lru := execPolicies[0].Name(), execPolicies[1].Name()
	if !b.traced {
		ph, err := phase(b.budget, false)
		if err != nil {
			return err
		}
		var rates []float64
		for _, legs := range ph {
			for _, l := range legs {
				rates = append(rates, float64(l.res.TasksRun)/l.jct.Seconds())
			}
		}
		b.set("primary_ms", median(ph.jctMs(mrd)), "jct_mrd "+nSamples(len(ph[mrd])))
		b.set("secondary_ms", median(ph.jctMs(lru)), "jct_lru "+nSamples(len(ph[lru])))
		b.set("throughput_per_s", median(rates), "tasks/s, median leg "+nSamples(len(rates)))
		reportExecCounters(ph, mrd, lru)
		return nil
	}

	// Traced run: an untraced half gives the overhead baseline and the
	// runtime (alloc, GC) deltas; the traced half gives the bus-derived
	// stage, task and cache metrics.
	plain, err := phase(b.budget/2, false)
	if err != nil {
		return err
	}
	traced, err := phase(b.budget/2, true)
	if err != nil {
		return err
	}
	b.set("obs.trace_overhead",
		ratio(median(traced.jctMs(mrd))+median(traced.jctMs(lru)), median(plain.jctMs(mrd))+median(plain.jctMs(lru))),
		fmt.Sprintf("traced/untraced JCT, n=%d/%d pairs", len(traced[mrd]), len(plain[mrd])))
	b.reportSetupLayers(st)
	b.reportExecLayers(plain[mrd], traced[mrd])
	probeTableRefresh(b, trace.SpanContext{}, []*workload.Spec{spec})
	return probeCodec(b, spec)
}

// sameAdvice checks an executed leg's per-stage advice against the
// oracle's fingerprints.
func sameAdvice(history []service.Advice, want []string) error {
	if len(history) != len(want) {
		return fmt.Errorf("advised %d stages, oracle %d", len(history), len(want))
	}
	for i, adv := range history {
		if got := adv.Fingerprint(); got != want[i] {
			return fmt.Errorf("advice at stage %d diverged from service.Replay:\n  exec:   %s\n  oracle: %s", adv.Stage, got, want[i])
		}
	}
	return nil
}

// reportExecCounters prints each policy's cache counters beside its JCT,
// so the benchmark shows hit ratio and JCT side by side.
func reportExecCounters(ph execPhase, policies ...string) {
	for _, p := range policies {
		c := ph[p][0].res
		fmt.Printf("exec: %-3s jct p50 %8.1f ms (n=%d)  hit ratio %.3f  promotes %d  evictions %d  spilled %.1f MB  digest %#x\n",
			p, median(ph.jctMs(p)), len(ph[p]), ratio(float64(c.Counters.Hits), float64(c.Counters.Hits+c.Counters.Misses)),
			c.Counters.Promotes, c.Counters.Evictions, float64(c.SpillBytes)/(1<<20), c.OutputDigest)
	}
}

// reportExecLayers sets the exec per-layer metrics from the MRD legs:
// runtime deltas from the untraced legs, everything else from the
// traced ones.
func (b *bench) reportExecLayers(plain, traced []legResult) {
	per := func(legs []legResult, f func(l legResult) float64) float64 {
		var xs []float64
		for _, l := range legs {
			xs = append(xs, f(l))
		}
		return median(xs)
	}
	n := nSamples(len(traced)) + " MRD legs"
	set := func(name string, f func(l legResult) float64) { b.set(name, per(traced, f), n) }
	set("exec.boundary_ms", func(l legResult) float64 { return float64(l.probe.boundaryUs) / 1e3 })
	set("exec.wave_ms", func(l legResult) float64 { return float64(l.probe.waveUs) / 1e3 })
	set("exec.task_busy_ms", func(l legResult) float64 { return float64(l.probe.busyUs) / 1e3 })
	set("exec.worker_util", func(l legResult) float64 {
		return ratio(float64(l.probe.busyUs), float64(execWorkers)*float64(l.probe.waveUs))
	})
	set("exec.stage_skew", func(l legResult) float64 { return mean(l.probe.skews) })
	set("exec.hit_ratio", func(l legResult) float64 {
		c := l.res.Counters
		return ratio(float64(c.Hits), float64(c.Hits+c.Misses))
	})
	set("exec.promotes", func(l legResult) float64 { return float64(l.res.Counters.Promotes) })
	set("exec.recomputes", func(l legResult) float64 { return float64(l.res.Counters.Recomputes) })
	set("exec.evictions", func(l legResult) float64 { return float64(l.res.Counters.Evictions) })
	set("exec.purged", func(l legResult) float64 { return float64(l.res.Counters.Purged) })
	set("exec.prefetch_issued", func(l legResult) float64 { return float64(l.res.PrefetchIssued) })
	set("exec.prefetch_accuracy", func(l legResult) float64 {
		return ratio(float64(l.res.PrefetchUsed), float64(l.res.PrefetchIssued))
	})
	set("exec.spill_mb", func(l legResult) float64 { return float64(l.res.SpillBytes) / (1 << 20) })
	set("exec.shuffle_mb", func(l legResult) float64 { return float64(l.res.ShuffleBytes) / (1 << 20) })
	set("exec.remote_fetches", func(l legResult) float64 { return float64(l.res.RemoteFetches) })
	set("exec.lineage_recomputes", func(l legResult) float64 { return float64(l.res.LineageRecomputes) })

	n = nSamples(len(plain)) + " untraced MRD legs"
	b.set("exec.alloc_mb", per(plain, func(l legResult) float64 { return l.rt.allocMB }), n)
	b.set("exec.gc_cycles", per(plain, func(l legResult) float64 { return l.rt.gcCycles }), n)
	b.set("exec.gc_cpu_frac", per(plain, func(l legResult) float64 { return l.rt.gcCPU }), n)
}

// execProbe rebuilds a traced leg's stage structure from the engine's
// bus: StageStart to the first TaskStart is the boundary (the master's
// cache decisions), StageEnd carries the task wave's duration and
// TaskEnd each task's. Events arrive on the master goroutine only.
type execProbe struct {
	tr     *tracer
	parent trace.SpanContext
	zeroNs int64   // wall time at which the bus clock read 0
	cursor []int64 // per-worker end of the last placed task span

	stageAt, waveAt int64 // µs on the bus clock
	awaitTask       bool
	tasks           []float64 // task durations (µs) of the current stage
	taskNodes       []int

	boundaryUs, waveUs, busyUs int64
	skews                      []float64
}

// begin anchors the bus clock, which Run starts at zero, to wall time.
func (p *execProbe) begin(parent trace.SpanContext) {
	if p == nil {
		return
	}
	p.parent = parent
	p.zeroNs = time.Now().UnixNano()
}

func (p *execProbe) observe(ev obs.Event) {
	switch ev.Kind {
	case obs.KindStageStart:
		p.stageAt, p.awaitTask = ev.At, true
		p.tasks, p.taskNodes = p.tasks[:0], p.taskNodes[:0]
	case obs.KindTaskStart:
		if p.awaitTask {
			p.boundaryUs += ev.At - p.stageAt
			p.waveAt, p.awaitTask = ev.At, false
		}
	case obs.KindTaskEnd:
		p.tasks = append(p.tasks, float64(ev.Value))
		p.taskNodes = append(p.taskNodes, ev.Node)
		p.busyUs += ev.Value
	case obs.KindStageEnd:
		p.waveUs += ev.Value
		if med := median(p.tasks); len(p.tasks) >= 2 && med > 0 {
			p.skews = append(p.skews, slices.Max(p.tasks)/med)
		}
		p.spans(ev)
	}
}

// spans records the finished stage: the stage span, its boundary and
// wave children, and the wave's tasks laid end to end per worker in
// dispatch order (each worker runs its tasks one after another).
func (p *execProbe) spans(end obs.Event) {
	ns := func(atUs int64) int64 { return p.zeroNs + atUs*1e3 }
	attr := fmt.Sprintf("stage=%d", end.Stage)
	stage := p.tr.add(p.parent, "exec.stage", ns(p.stageAt), (end.At-p.stageAt)*1e3, attr)
	p.tr.add(stage, "exec.boundary", ns(p.stageAt), (p.waveAt-p.stageAt)*1e3, attr)
	waveStart := end.At - end.Value
	wave := p.tr.add(stage, "exec.wave", ns(waveStart), end.Value*1e3, attr)
	for i := range p.cursor {
		p.cursor[i] = waveStart
	}
	for i, d := range p.tasks {
		w := p.taskNodes[i]
		p.tr.add(wave, "exec.task", ns(p.cursor[w]), int64(d)*1e3, "")
		p.cursor[w] += int64(d)
	}
}

// probeCodec times the spill/miss codec — EncodeRows and DecodeRows —
// on the workload's generated source partitions, and checks the round
// trip.
func probeCodec(b *bench, spec *workload.Spec) error {
	var parts [][]exec.Row
	rows := 0
	for _, r := range spec.Graph.RDDs {
		if r.Op != "source" {
			continue
		}
		for p := 0; p < r.NumPartitions && len(parts) < 64; p++ {
			part := exec.GenPartition(spec.Params.Seed, r.ID, p, spec.Params.DataRows, spec.Params.DataSkew)
			parts = append(parts, part)
			rows += len(part)
		}
	}
	if rows == 0 {
		return fmt.Errorf("codec probe: %s has no source partitions", spec.Name)
	}
	sp := b.tr.start(trace.SpanContext{}, "exec.codec")
	defer sp.End()
	var encNs, decNs []float64
	for round := 0; round < 20; round++ {
		t0 := time.Now()
		enc := make([][]byte, len(parts))
		for i, part := range parts {
			enc[i] = exec.EncodeRows(part)
		}
		encNs = append(encNs, float64(time.Since(t0).Nanoseconds())/float64(rows))
		t0 = time.Now()
		for i, e := range enc {
			got, err := exec.DecodeRows(e)
			if err != nil {
				return fmt.Errorf("codec probe: %w", err)
			}
			if round == 0 && exec.DigestRows(got) != exec.DigestRows(parts[i]) {
				return fmt.Errorf("codec probe: round trip changed partition %d", i)
			}
		}
		decNs = append(decNs, float64(time.Since(t0).Nanoseconds())/float64(rows))
	}
	note := fmt.Sprintf("n=%d rounds x %d rows", len(encNs), rows)
	b.set("exec.encode_ns_per_row", median(encNs), note)
	b.set("exec.decode_ns_per_row", median(decNs), note)
	return nil
}
