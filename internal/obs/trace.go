package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Trace collects the timed spans of one request so a query response can
// explain itself: per-shard fan-out, cold reads, cache hits, merge. A nil
// *Trace is a no-op everywhere, so tracing costs nothing unless the caller
// asked for it (?trace=1).
type Trace struct {
	name  string
	start time.Time

	mu    sync.Mutex
	spans []*Span
}

// NewTrace opens a trace rooted at now.
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

type traceKey struct{}

// WithTrace returns a context carrying tr, so a query entry point takes its
// optional trace from the context it already receives.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace WithTrace attached, or nil — which every
// Trace and Span method accepts — when there is none.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Span is one timed region inside a trace, with optional integer
// attributes (rows scanned, cache hits, ...).
type Span struct {
	tr    *Trace
	name  string
	start time.Time
	dur   time.Duration
	attrs map[string]int64
	done  bool
}

// Start opens a span. Safe to call concurrently from the per-shard
// fan-out; returns nil when the trace itself is nil.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// SetInt sets an attribute on the span (overwriting a prior value).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]int64{}
	}
	s.attrs[key] = v
	s.tr.mu.Unlock()
}

// AddInt adds to an attribute on the span.
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]int64{}
	}
	s.attrs[key] += v
	s.tr.mu.Unlock()
}

// End closes the span. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.tr.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = d
	}
	s.tr.mu.Unlock()
}

// SpanReport is the JSON shape of one span in a trace report.
type SpanReport struct {
	Name    string           `json:"name"`
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// TraceReport is the JSON shape of a finished trace, embedded in query
// responses under "trace".
type TraceReport struct {
	Name  string       `json:"name"`
	DurUS int64        `json:"dur_us"`
	Spans []SpanReport `json:"spans"`
}

// Report renders the trace. Unfinished spans report their duration as of
// now. Spans are ordered by start offset, then name, so the fan-out reads
// chronologically. Nil trace reports nil.
func (t *Trace) Report() *TraceReport {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	rep := &TraceReport{
		Name:  t.name,
		DurUS: now.Sub(t.start).Microseconds(),
		Spans: make([]SpanReport, 0, len(t.spans)),
	}
	for _, s := range t.spans {
		d := s.dur
		if !s.done {
			d = now.Sub(s.start)
		}
		var attrs map[string]int64
		if len(s.attrs) > 0 {
			attrs = make(map[string]int64, len(s.attrs))
			for k, v := range s.attrs {
				attrs[k] = v
			}
		}
		rep.Spans = append(rep.Spans, SpanReport{
			Name:    s.name,
			StartUS: s.start.Sub(t.start).Microseconds(),
			DurUS:   d.Microseconds(),
			Attrs:   attrs,
		})
	}
	t.mu.Unlock()
	sort.SliceStable(rep.Spans, func(i, j int) bool {
		if rep.Spans[i].StartUS != rep.Spans[j].StartUS {
			return rep.Spans[i].StartUS < rep.Spans[j].StartUS
		}
		return rep.Spans[i].Name < rep.Spans[j].Name
	})
	return rep
}
