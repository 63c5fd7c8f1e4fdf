package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clients is the fixed client concurrency of every workload: one load
// generator goroutine (and connection) per CPU of the 2-CPU machine the
// benchmark was sized on. It is a constant, not runtime.NumCPU, so the
// generated inputs do not depend on the machine.
const clients = 2

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs, and false when
// fewer than minBeyond samples lie beyond it (p90 needs 100 samples,
// p99 1000, the median 20).
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the plain median, for set-up repetitions and the backlog
// check, where the sample-count rule does not apply.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Each workload sets up at least setupMinReps times and until
// setupMinTime has passed; setup_s is the median. One engine set-up
// takes about 13 ms, within reach of scheduler jitter, and the first
// serve restart also replays and compacts the warm-up's journal.
const (
	setupMinReps = 5
	setupMinTime = 2 * time.Second
)

// heapSampler records the highest live heap while it runs: the bytes
// the last garbage collection found reachable.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// sampleHeap starts sampling the live heap every 5ms.
func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeUse is a snapshot of the Go runtime's allocation and GC
// counters, diffed across a timed phase.
type runtimeUse struct {
	alloc, mallocs uint64
	gcCPU, allCPU  float64
}

func readRuntime() runtimeUse {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeUse{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// report adds the runtime per-layer metrics for ops operations since
// before.
func (before runtimeUse) report(rep *report, ops int) {
	runtime.GC() // folds the phase's GC work into the CPU classes
	after := readRuntime()
	n := float64(ops)
	rep.layer("runtime.alloc_kb_per_op", "KB", float64(after.alloc-before.alloc)/1024/n, ops)
	rep.layer("runtime.mallocs_per_op", "count", float64(after.mallocs-before.mallocs)/n, ops)
	pct := 0.0
	if d := after.allCPU - before.allCPU; d > 0 {
		pct = 100 * (after.gcCPU - before.gcCPU) / d
	}
	rep.layer("runtime.gc_cpu_pct", "%", pct, -1)
}

// repeatSetup runs set-up as often as the constants above say, keeps
// the last instance, and returns every repetition's time in seconds.
// Each set-up returns a teardown for the instance it built; all but
// the last are torn down as soon as the next one starts, and collected
// before the next one is timed, so every repetition starts from the
// same heap. A set-up that restarts one long-lived instance (serve's
// fleet) returns a nil teardown.
func repeatSetup(setup func(i int) (teardown func(), err error)) (times []float64, teardown func(), err error) {
	var total time.Duration
	for i := 0; i < setupMinReps || total < setupMinTime; i++ {
		if teardown != nil {
			teardown()
			teardown = nil
		}
		runtime.GC()
		t0 := time.Now()
		teardown, err = setup(i)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return times, teardown, nil
}

// perSecondMedian is the median, over the whole seconds of span, of
// how many operations completed in each second; done holds completion
// times in seconds from the start. A stall of a second or two (the
// disk writing back a journal) moves it less than it moves the mean
// rate.
func perSecondMedian(done []float64, span time.Duration) float64 {
	counts := make([]float64, int(span/time.Second))
	for _, t := range done {
		if i := int(t); i < len(counts) {
			counts[i]++
		}
	}
	if len(counts) == 0 {
		return math.NaN()
	}
	return median(counts)
}

// latencies is a goroutine-safe sample sink.
type latencies struct {
	mu sync.Mutex
	xs map[string][]float64
}

func newLatencies() *latencies { return &latencies{xs: map[string][]float64{}} }

func (l *latencies) add(class string, v float64) {
	l.mu.Lock()
	l.xs[class] = append(l.xs[class], v)
	l.mu.Unlock()
}

func (l *latencies) get(class string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs[class]...)
}
