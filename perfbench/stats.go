package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nSamples is the note attached to a timing: its sample count.
func nSamples(n int) string { return fmt.Sprintf("n=%d", n) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a snapshot of the runtime counters a layer's memory
// and GC cost is taken from.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// runtimeDelta is the runtime cost between two samples.
type runtimeDelta struct {
	allocMB  float64
	gcCycles float64
	gcCPU    float64 // GC share of all CPU time in the interval
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	return runtimeDelta{
		allocMB:  float64(b.allocBytes-a.allocBytes) / (1 << 20),
		gcCycles: float64(b.gcCycles - a.gcCycles),
		gcCPU:    ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

// hostSteal is the CPU time, summed over CPUs, that a hypervisor has
// taken from this machine since boot (the steal column of /proc/stat,
// in USER_HZ = 100 ticks per second); 0 where it cannot be read. The
// benchmark prints it beside its timings: on a shared host, stolen time
// is the main cause of run-to-run spread.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}

// rssInterval is how often the resident-set sampler reads the kernel's
// figure while a window is open.
const rssInterval = 2 * time.Millisecond

// rssSampler keeps the peak resident set of each window a workload opens
// around one of its operations, read every rssInterval by a goroutine
// that runs only while the window is open. peak_rss_mb is the median of
// those peaks: on a heap of a few tens of MB the process's single
// high-water mark (VmHWM) moves by a fifth with the timing of one GC
// cycle, a median over operations does not. begin and end are called in
// turn, never concurrently.
type rssSampler struct {
	f     *os.File
	page  float64 // MB per page
	peak  float64 // MB, of the open window; written by its goroutine
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("resident set: %w", err)
	}
	s := &rssSampler{f: f, page: float64(os.Getpagesize()) / (1 << 20)}
	if _, err := s.read(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// read returns the current resident set in MB (the second field of
// /proc/self/statm, in pages).
func (s *rssSampler) read() (float64, error) {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 && err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(buf[:n]))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident set: short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	return pages * s.page, nil
}

// sample folds the current resident set into the open window's peak.
func (s *rssSampler) sample() {
	if mb, err := s.read(); err == nil && mb > s.peak {
		s.peak = mb
	}
}

// begin opens a window.
func (s *rssSampler) begin() {
	s.peak = 0
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
}

// end closes the open window, after one last sample, and records its
// peak.
func (s *rssSampler) end() {
	close(s.stop)
	<-s.done
	s.sample()
	s.peaks = append(s.peaks, s.peak)
}

func (s *rssSampler) close() { s.f.Close() }
