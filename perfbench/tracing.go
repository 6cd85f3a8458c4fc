package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mrdspark/internal/obs/trace"
)

// spanCapacity bounds the span ring. The busiest traced phase (advise-mix
// records a span per advance) stays well below it; overflow is reported.
const spanCapacity = 1 << 18

// tracer keeps the traced run's spans in memory until exit: the ring of
// spans the benchmark starts and ends around layer calls, plus spans
// rebuilt afterwards from exec bus events (stages, boundaries, waves,
// tasks), whose timing the engine reports rather than the benchmark.
// A nil *tracer records nothing.
type tracer struct {
	rec *trace.Tracer

	mu      sync.Mutex
	rebuilt []trace.Span
}

func newTracer() *tracer { return &tracer{rec: trace.NewTracer(spanCapacity)} }

// start begins a span under parent; inert on a nil tracer.
func (t *tracer) start(parent trace.SpanContext, name string) trace.ActiveSpan {
	if t == nil {
		return trace.ActiveSpan{}
	}
	return t.rec.Start(parent, name)
}

// add records a span whose start and duration are already known, under
// parent, and returns its context so children can hang off it.
func (t *tracer) add(parent trace.SpanContext, name string, startNs, durNs int64, attr string) trace.SpanContext {
	// Starting a span without ending it only draws a fresh ID.
	sc := t.rec.Start(parent, name).Context()
	t.mu.Lock()
	t.rebuilt = append(t.rebuilt, trace.Span{
		Trace: sc.Trace, ID: sc.Span, Parent: parent.Span,
		Name: name, StartNs: startNs, DurNs: durNs, Attr: attr,
	})
	t.mu.Unlock()
	return sc
}

// spans returns every recorded span, oldest first.
func (t *tracer) spans() []trace.Span {
	all := t.rec.Spans()
	t.mu.Lock()
	all = append(all, t.rebuilt...)
	t.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].StartNs < all[j].StartNs })
	return all
}

// export writes the spans as JSONL and as a Chrome trace into dir.
func (t *tracer) export(dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	all := t.spans()
	write := func(name string, fn func(f *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("trace export %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write(base+".spans.jsonl", func(f *os.File) error { return trace.WriteJSONL(f, all) }); err != nil {
		return err
	}
	if err := write(base+".chrome.json", func(f *os.File) error { return trace.WriteChromeTrace(f, all) }); err != nil {
		return err
	}
	total, dropped := t.rec.Stats()
	fmt.Printf("trace: %d spans (%d rebuilt from bus events, %d dropped) -> %s\n",
		len(all), len(all)-int(total-dropped), dropped, filepath.Join(dir, base+".{spans.jsonl,chrome.json}"))
	return nil
}

// layerTime is one span name's total and self time.
type layerTime struct {
	name          string
	count         int
	totalNs, self int64
}

// selfTimes computes each span name's self time: the span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(all []trace.Span) []layerTime {
	children := map[trace.SpanID][]trace.Span{}
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range all {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			by[s.Name] = lt
		}
		lt.count++
		lt.totalNs += s.DurNs
		lt.self += s.DurNs - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent trace.Span, kids []trace.Span) int64 {
	lo, hi := parent.StartNs, parent.StartNs+parent.DurNs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNs, lo), min(k.StartNs+k.DurNs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

func (t *tracer) printSelfTimes() {
	fmt.Printf("self time by span (ms): %-26s %8s %12s %12s\n", "span", "count", "total", "self")
	for _, lt := range selfTimes(t.spans()) {
		fmt.Printf("  %-46s %8d %12.3f %12.3f\n", lt.name, lt.count,
			float64(lt.totalNs)/1e6, float64(lt.self)/1e6)
	}
}
