package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one operation share op; parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// disabled one: begin and end cost a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	from  int // spans before this index were dropped by reset
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// reset drops every span recorded so far. The spans stay allocated,
// so a span still open elsewhere can be ended safely.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.from = len(t.spans)
	t.mu.Unlock()
}

// begin opens a span and returns its index for end (and as the parent
// of nested spans).
func (t *tracer) begin(op uint64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes reports, per span name, the mean self time: each span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() []metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int)
	for i, s := range t.spans[t.from:] {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], t.from+i)
		}
	}
	total := map[string]float64{}
	count := map[string]int{}
	for i, s := range t.spans[t.from:] {
		i += t.from
		if s.End == 0 {
			continue
		}
		covered := coveredNS(s, kids[i], t.spans)
		total[s.Name] += float64(s.End-s.Start-covered) / 1e6
		count[s.Name]++
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []metric
	for _, n := range names {
		out = append(out, metric{"self_ms." + n, "ms", total[n] / float64(count[n]), count[n]})
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, kids []int, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End != 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			covered += v.b - reach
			reach = v.b
		}
	}
	return covered
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans[t.from:] {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
