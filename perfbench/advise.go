package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"mrdspark/internal/cluster"
	"mrdspark/internal/experiments"
	"mrdspark/internal/obs/trace"
	"mrdspark/internal/service"
	"mrdspark/internal/service/client"
	"mrdspark/internal/workload"
)

// adviseWorkloads are the sessions each client cycles through: short,
// create-heavy sessions (KM, HB-TeraSort) beside long, advance-heavy
// ones (SCC, PO, CC).
var adviseWorkloads = []string{"SCC", "PO", "KM", "CC", "HB-TeraSort"}

// adviseConfig models 4 nodes x 64M under full MRD.
var adviseConfig = service.AdvisorConfig{Nodes: 4, CacheBytes: 64 * cluster.MB, Policy: experiments.SpecMRD}

// rssSlice is the length of advise-mix's resident-set windows. The two
// clients never pause together, so the windows are slices of time, not
// operations, and nothing settles the heap between them.
const rssSlice = time.Second

// adviseServer is the in-process server, its frame listener on
// loopback, and one binary-wire client (one connection) per load
// client.
type adviseServer struct {
	srv    *service.Server
	ln     net.Listener
	served chan error
	conns  []*client.Client
}

func bootAdvise() (*adviseServer, error) {
	s := &adviseServer{srv: service.NewServer(service.ServerConfig{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, err
	}
	s.ln = ln
	go func() { s.served <- s.srv.ServeFrames(ln) }()
	addr := ln.Addr().String()
	for i := 0; i < clients; i++ {
		s.conns = append(s.conns, client.New(client.Config{BaseURL: "http://" + addr, Binary: true, FrameAddr: addr}))
	}
	return s, nil
}

// stop closes the clients, then the listener, waits for the accept
// loop to return and stops the server's background goroutines.
func (s *adviseServer) stop() {
	for _, c := range s.conns {
		c.Close()
	}
	s.ln.Close()
	<-s.served
	s.srv.Close()
}

// wireErrors scrapes mrdserver_wire_errors_total from /metrics.
func (s *adviseServer) wireErrors() (float64, error) {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "mrdserver_wire_errors_total "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no mrdserver_wire_errors_total")
}

// adviseLoad is what the clients measured in one phase.
type adviseLoad struct {
	cycleRates []float64 // one client's advice/s over one cycle of sessions
	advanceUs  []float64
	createMs   []float64
	sessions   int
	decisions  int64
	allocMB    float64 // heap allocated over the phase
}

func runAdvise(b *bench) error {
	params := workload.Params{Seed: b.seed}
	var srv *adviseServer
	var specs []*workload.Spec
	st, err := timedSetup(b, func(parent trace.SpanContext, st *setupTimes) (func(), error) {
		var err error
		if specs, err = st.buildSpecs(b.tr, parent, adviseWorkloads, params); err != nil {
			return nil, err
		}
		sp := b.tr.start(parent, "service.boot")
		srv, err = bootAdvise()
		sp.End()
		if err != nil {
			return nil, err
		}
		return srv.stop, nil
	})
	if err != nil {
		return err
	}
	defer srv.stop()

	// The oracle: in-process service.Replay over the identical
	// schedules. Every advice a client receives must match it.
	oracle := map[string][]string{}
	for _, spec := range specs {
		a, err := service.NewAdvisor(spec.Graph, adviseConfig)
		if err != nil {
			return err
		}
		advs, err := service.Replay(a)
		if err != nil {
			return err
		}
		for _, adv := range advs {
			oracle[spec.Name] = append(oracle[spec.Name], adv.Fingerprint())
		}
	}
	steps := map[string][]service.Step{}
	for _, spec := range specs {
		steps[spec.Name] = service.Schedule(spec.Graph)
	}
	b.rssWindows = "1 s slices"
	fmt.Printf("advise: %d clients x 1 binary connection, %d nodes x %dMB %s, sessions cycle %s, seed %d\n",
		clients, adviseConfig.Nodes, adviseConfig.CacheBytes/cluster.MB, adviseConfig.Policy.Name(),
		strings.Join(adviseWorkloads, ","), b.seed)

	// phase runs the clients until the budget is spent. Each client runs
	// whole cycles of sessions only, so every phase advises the same mix
	// of stages and its latency quantiles compare across runs.
	phase := func(budget time.Duration, tr *tracer, tag string) (adviseLoad, error) {
		var mu sync.Mutex
		var load adviseLoad
		var firstErr error
		var wg sync.WaitGroup
		rt0 := readRuntime()
		start := time.Now()
		b.rss.begin()
		slicing, sliced := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sliced)
			t := time.NewTicker(rssSlice)
			defer t.Stop()
			for {
				select {
				case <-slicing:
					return
				case <-t.C:
					b.rss.end()
					b.rss.begin()
				}
			}
		}()
		for ci, c := range srv.conns {
			wg.Add(1)
			go func(ci int, c *client.Client) {
				defer wg.Done()
				var adv, crt, rates []float64
				var decisions int64
				sessions := 0
				for cycle := 0; cycle == 0 || time.Since(start) < budget; cycle++ {
					t0, before := time.Now(), len(adv)
					for k := range adviseWorkloads {
						name := adviseWorkloads[(ci+k)%len(adviseWorkloads)]
						id := fmt.Sprintf("%s-c%d-r%d-s%d", tag, ci, cycle, k)
						d, err := adviseSession(b, tr, c, id, name, params, steps[name], oracle[name], &adv, &crt)
						decisions += d
						if err != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = err
							}
							mu.Unlock()
							continue
						}
						sessions++
					}
					rates = append(rates, float64(len(adv)-before)/time.Since(t0).Seconds())
				}
				mu.Lock()
				load.cycleRates = append(load.cycleRates, rates...)
				load.advanceUs = append(load.advanceUs, adv...)
				load.createMs = append(load.createMs, crt...)
				load.decisions += decisions
				load.sessions += sessions
				mu.Unlock()
			}(ci, c)
		}
		wg.Wait()
		close(slicing)
		<-sliced
		b.rss.end()
		load.allocMB = rt0.to(readRuntime()).allocMB
		if firstErr != nil {
			fmt.Printf("advise: first failed session: %v\n", firstErr)
		}
		if len(load.advanceUs) == 0 {
			return load, fmt.Errorf("no advance completed")
		}
		return load, nil
	}
	// advice/s is the clients' combined rate: clients x the median
	// client's rate over one cycle of sessions. A median over cycles
	// keeps a burst of host CPU steal from moving the whole figure.
	rate := func(l adviseLoad) float64 { return float64(clients) * median(l.cycleRates) }

	if !b.traced {
		load, err := phase(b.budget, nil, "run")
		if err != nil {
			return err
		}
		n := nSamples(len(load.advanceUs))
		b.set("primary_ms", quantile(load.advanceUs, 0.5)/1e3, "advance p50 "+n)
		b.set("secondary_ms", quantile(load.advanceUs, 0.99)/1e3, "advance p99 "+n)
		b.set("throughput_per_s", rate(load), fmt.Sprintf("advice/s, %d cycles, %d sessions", len(load.cycleRates), load.sessions))
		return nil
	}

	plain, err := phase(b.budget/2, nil, "plain")
	if err != nil {
		return err
	}
	traced, err := phase(b.budget/2, b.tr, "traced")
	if err != nil {
		return err
	}
	b.set("obs.trace_overhead", ratio(rate(plain), rate(traced)),
		fmt.Sprintf("traced/untraced wall per advance, n=%d/%d cycles", len(traced.cycleRates), len(plain.cycleRates)))
	b.set("service.create_ms", quantile(plain.createMs, 0.5), nSamples(len(plain.createMs)))

	// Advisor compute alone: in-process Advance over the same schedules.
	sp := b.tr.start(trace.SpanContext{}, "service.compute")
	var compute []float64
	for _, spec := range specs {
		a, err := service.NewAdvisor(spec.Graph, adviseConfig)
		if err != nil {
			return err
		}
		for _, st := range steps[spec.Name] {
			if st.Stage < 0 {
				if err := a.SubmitJob(st.Job); err != nil {
					return err
				}
				continue
			}
			t0 := time.Now()
			if _, err := a.Advance(st.Stage); err != nil {
				return err
			}
			compute = append(compute, us(time.Since(t0)))
		}
	}
	sp.End()
	n := nSamples(len(compute))
	b.set("service.compute_p50_us", quantile(compute, 0.5), n)
	b.set("service.compute_p99_us", quantile(compute, 0.99), n)
	b.set("service.transport_us", quantile(plain.advanceUs, 0.5)-quantile(compute, 0.5),
		"client advance p50 - compute p50")
	advances := float64(len(plain.advanceUs))
	b.set("service.decisions_per_advance", ratio(float64(plain.decisions), advances), nSamples(len(plain.advanceUs)))
	b.set("service.alloc_kb_per_advance", ratio(plain.allocMB*1024, advances), "whole process, untraced phase")
	werr, err := srv.wireErrors()
	if err != nil {
		return err
	}
	b.set("service.wire_errors", werr, "/metrics")
	b.reportSetupLayers(st)
	probeTableRefresh(b, trace.SpanContext{}, specs)
	return nil
}

// adviseSession runs one complete session — create, submit every job,
// advance every stage, delete — and checks each advice against the
// oracle. Every advance is one operation; a failed create, submit or
// delete counts as one failed operation too.
func adviseSession(b *bench, tr *tracer, c *client.Client, id, name string, params workload.Params,
	steps []service.Step, want []string, advUs, createMs *[]float64) (decisions int64, err error) {
	ctx := context.Background()
	root := tr.start(trace.SpanContext{}, "bench.session")
	defer root.EndWith(name)
	sp := tr.start(root.Context(), "service.create")
	t0 := time.Now()
	_, err = c.CreateSession(ctx, service.CreateSessionRequest{ID: id, Workload: name, Params: params, Advisor: adviseConfig})
	*createMs = append(*createMs, ms(time.Since(t0)))
	sp.End()
	if err != nil {
		b.op(false)
		return 0, fmt.Errorf("create %s: %w", id, err)
	}
	i := 0
	for _, st := range steps {
		if st.Stage < 0 {
			sp := tr.start(root.Context(), "service.submit")
			_, err := c.SubmitJob(ctx, id, st.Job)
			sp.End()
			if err != nil {
				b.op(false)
				return decisions, fmt.Errorf("submit %s job %d: %w", id, st.Job, err)
			}
			continue
		}
		sp := tr.start(root.Context(), "service.advance")
		t0 := time.Now()
		adv, err := c.Advance(ctx, id, st.Stage)
		*advUs = append(*advUs, us(time.Since(t0)))
		sp.End()
		if err != nil {
			b.op(false)
			return decisions, fmt.Errorf("advance %s stage %d: %w", id, st.Stage, err)
		}
		decisions += int64(len(adv.Decisions))
		ok := i < len(want) && adv.Fingerprint() == want[i]
		if !ok {
			fmt.Printf("advise: %s stage %d advice differs from the in-process oracle\n", id, st.Stage)
		}
		b.op(ok)
		i++
	}
	if i != len(want) {
		b.op(false)
		fmt.Printf("advise: %s got %d advices, oracle has %d\n", id, i, len(want))
	}
	sp = tr.start(root.Context(), "service.delete")
	err = c.DeleteSession(ctx, id)
	sp.End()
	if err != nil {
		b.op(false)
		return decisions, fmt.Errorf("delete %s: %w", id, err)
	}
	return decisions, nil
}
