package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary.  Spans of one run
// share its run ID; Parent is the span that caused this one (0 for a
// pass's root).  Start and End are nanoseconds since the run's tracer
// was made.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of a span name before its first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	runID string
	t0    time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now()}
}

// dump returns every span recorded so far.
func (t *tracer) dump() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// newProbe starts the instrumentation sink of one traced pass.
func (t *tracer) newProbe() *probe {
	t.mu.Lock()
	first := len(t.spans)
	t.mu.Unlock()
	return &probe{tr: t, first: first, counts: make(map[string]float64), times: make(map[string][]float64)}
}

// probe is what the wrappers of one traced pass record into: spans
// (kept by the run's tracer), durations by span name and counters.
// Passes run one after another, so a pass's spans are the tracer's
// spans from first on.  Every method is safe on a nil probe and then
// does nothing, so wrappers need not know whether a pass is traced.
type probe struct {
	tr    *tracer
	first int

	mu     sync.Mutex
	counts map[string]float64
	times  map[string][]float64 // seconds, by span name
}

// begin opens a span and returns its ID and the function that closes
// it.
func (p *probe) begin(name string, parent int64) (int64, func()) {
	if p == nil {
		return 0, func() {}
	}
	id := p.tr.ids.Add(1)
	start := time.Now()
	return id, func() {
		end := time.Now()
		s := span{
			Run: p.tr.runID, ID: id, Parent: parent, Name: name,
			Start: start.Sub(p.tr.t0).Nanoseconds(), End: end.Sub(p.tr.t0).Nanoseconds(),
		}
		p.tr.mu.Lock()
		p.tr.spans = append(p.tr.spans, s)
		p.tr.mu.Unlock()
		p.mu.Lock()
		p.times[name] = append(p.times[name], end.Sub(start).Seconds())
		p.mu.Unlock()
	}
}

// add adds v to the counter name.
func (p *probe) add(name string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

// count returns the counter name.
func (p *probe) count(name string) float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[name]
}

// durations returns the durations, in seconds, of the spans named
// name.
func (p *probe) durations(name string) []float64 {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.times[name]...)
}

// passSpans returns the spans this pass recorded.
func (p *probe) passSpans() []span {
	p.tr.mu.Lock()
	defer p.tr.mu.Unlock()
	return append([]span(nil), p.tr.spans[p.first:]...)
}

// finish reports the layer self times of the pass's spans.
func (p *probe) finish(ps *pass) {
	for layer, s := range selfTimes(p.passSpans()) {
		ps.layers["self_s."+layer] = s
	}
}

// spanCtxKey carries the current span ID through a context, so a
// wrapper called with the context parents its span on the caller's.
type spanCtxKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// spanFrom returns the span ID ctx carries, or fallback.
func spanFrom(ctx context.Context, fallback int64) int64 {
	if id, ok := ctx.Value(spanCtxKey{}).(int64); ok && id != 0 {
		return id
	}
	return fallback
}

// selfTimes returns each layer's self time in seconds: the summed
// duration of its spans minus the part of each span's interval that
// its child spans cover.  Children that overlap each other are
// counted once.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		out[s.layer()] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coveredNS returns how much of parent's interval the union of kids'
// intervals covers.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
