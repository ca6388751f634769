package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side timed call into a layer's public function.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Job    int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory for the traced run; they are written out
// as Chrome trace JSON when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, job int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose times were taken elsewhere and returns its
// id.
func (t *tracer) record(name string, parent, job int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// do runs f inside a span and returns f's error.
func (t *tracer) do(name string, parent, job int, f func() error) error {
	id := t.begin(name, parent, job)
	err := f()
	t.end(id)
	return err
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// tree returns the finished spans with each span's children by parent
// id.
func (t *tracer) tree() ([]span, map[int][]span) {
	spans := t.closed()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return spans, children
}

// stat summarizes the spans called name: count and mean duration.
func (t *tracer) stat(name string) (n int, mean time.Duration) {
	var total time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			n++
			total += s.End - s.Start
		}
	}
	if n == 0 {
		return 0, 0
	}
	return n, total / time.Duration(n)
}

// addSpanMetric adds the mean duration of the spans called name, in
// unit ("ms", "us" or "ns"), divided by per (work items per span).
func (t *tracer) addSpanMetric(rep *report, metricName, spanName, unit string, per float64) {
	n, mean := t.stat(spanName)
	if n == 0 {
		return
	}
	scale := map[string]float64{"ms": 1e6, "us": 1e3, "ns": 1}[unit]
	rep.add(metricName, unit, float64(mean.Nanoseconds())/scale/per, n)
}

// selfTime is one layer's total and self time over the traced run: a
// span's self time is its duration minus the part of it its children
// cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	spans, children := t.tree()
	agg := make(map[string]*selfTime)
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// unattributed returns the share of the root spans called root that no
// child span covers, over all of them.
func (t *tracer) unattributed(root string) (float64, int) {
	spans, children := t.tree()
	var total, cov time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == root {
			n++
			total += s.End - s.Start
			cov += covered(s, children[s.ID])
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(total-cov) / float64(total), n
}

func printSelfTimes(w io.Writer, st []selfTime) {
	for _, s := range st {
		fmt.Fprintf(w, "span %-24s count=%-5d total=%.3f ms self=%.3f ms\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, one track per job), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var evs []event
	for _, s := range t.closed() {
		evs = append(evs, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Job,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
