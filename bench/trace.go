package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the driver
// around its calls into the system: an HTTP call, an ingest round, a phase,
// or a public function of one layer called in the driver's own process.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the tracer was made
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	scope int // span that new spans become children of
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanHandle struct {
	tr        *tracer
	idx       int
	prevScope int
	isScope   bool
}

// start opens a span under the current scope.
func (t *tracer) start(name string) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.scope, Name: name, Start: now})
	return spanHandle{tr: t, idx: len(t.spans) - 1}
}

// enter opens a span and makes it the scope until it ends. Scopes nest on
// the driver's main goroutine only: phases and rounds.
func (t *tracer) enter(name string) spanHandle {
	h := t.start(name)
	if t == nil {
		return h
	}
	t.mu.Lock()
	h.prevScope, h.isScope = t.scope, true
	t.scope = t.spans[h.idx].ID
	t.mu.Unlock()
	return h
}

func (h spanHandle) end() {
	if h.tr == nil {
		return
	}
	now := int64(time.Since(h.tr.t0))
	h.tr.mu.Lock()
	h.tr.spans[h.idx].End = now
	if h.isScope {
		h.tr.scope = h.prevScope
	}
	h.tr.mu.Unlock()
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its children cover.
func (t *tracer) selfTimes() []layerSelf {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byName := map[string]*layerSelf{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		row := byName[s.Name]
		if row == nil {
			row = &layerSelf{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.SelfMS += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]layerSelf, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write stores the spans and the self-time table as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": spans, "self_times": t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
