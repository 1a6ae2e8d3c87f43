package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer's
// public functions: name, start, end, parent span and the ID of the
// job or request the span belongs to. Spans stay in memory and are
// written out when the run ends. A tracer starts disabled and records
// nothing until on is set, so untraced work pays one branch per layer
// call; on is only flipped between jobs, never while one runs.
//
// A span's name is "<layer>.<operation>"; a layer's self time is the
// duration of its spans minus the part of each covered by child spans.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	start  time.Duration
	end    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent, job int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, start: now, end: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records an already-timed span, for intervals measured by the
// program itself (request-log phases, sweep timestamps).
func (t *tracer) add(name string, parent, job int, start time.Time, d time.Duration) int {
	if !t.on {
		return 0
	}
	s := start.Sub(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, start: s, end: s + d})
	return len(t.spans)
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, job int, f func()) {
	id := t.begin(name, parent, job)
	f()
	t.end(id)
}

// total sums the durations of every closed span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.end >= 0 {
			sum += s.end - s.start
		}
	}
	return sum
}

// selfTimes returns each layer's self time: for every span, its
// duration minus the union of its children's intervals, summed per
// layer (the span name up to the first dot).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 && s.end >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := (s.end - s.start) - covered(children[s.ID], s.start, s.end)
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(kids []span, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum time.Duration
	cur := lo
	for _, k := range kids {
		s, e := max(k.start, cur), min(k.end, hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		s.Start, s.End = ms(s.start), ms(s.end)
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
