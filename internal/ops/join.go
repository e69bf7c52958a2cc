package ops

import (
	"fmt"
	"sort"
	"time"

	"streamloader/internal/expr"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// Join implements s1 ⋈t_pred s2: every t time interval, the tuples of s1 and
// s2 collected in the interval are joined according to the join predicate.
//
// The output schema is the concatenation of the left and right schemas; a
// right-side attribute whose name collides with a left-side one is renamed
// "right_<name>". STT composition follows the consistency rules of the
// multigranular model: the output granularities are the coarsest of the two
// inputs, the themes are merged, and each result tuple carries the later of
// the two event times (re-truncated) and the midpoint of the two positions.
type Join struct {
	base
	interval time.Duration
	pred     *expr.Compiled
	left     *stt.Schema
	right    *stt.Schema

	leftWin  map[int64][]*stt.Tuple
	rightWin map[int64][]*stt.Tuple
	// Per-run state, reset at the start of every Run.
	merger  *watermarkMerger
	flushed int64 // highest window index already flushed + 1 (as lower bound)
}

// NewJoin compiles the predicate against both input schemas and derives the
// combined output schema.
func NewJoin(name string, interval time.Duration, predicate string, left, right *stt.Schema) (*Join, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("join %s: interval must be positive, got %v", name, interval)
	}
	pred, err := expr.CompileBool(predicate, expr.Env{Left: left, Right: right})
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", name, err)
	}

	var fields []stt.Field
	fields = append(fields, left.Fields()...)
	taken := map[string]bool{}
	for _, f := range left.Fields() {
		taken[f.Name] = true
	}
	for _, f := range right.Fields() {
		if taken[f.Name] {
			f = stt.NewField("right_"+f.Name, f.Kind, f.Unit)
		}
		if taken[f.Name] {
			return nil, fmt.Errorf("join %s: attribute %q collides even after renaming", name, f.Name)
		}
		taken[f.Name] = true
		fields = append(fields, f)
	}
	out, err := stt.NewSchema(fields,
		left.TGran.Coarsest(right.TGran),
		left.SGran.Coarsest(right.SGran),
		stt.MergeThemes(left.Themes, right.Themes)...)
	if err != nil {
		return nil, fmt.Errorf("join %s: %w", name, err)
	}
	j := &Join{
		base:     base{name: name, kind: KindJoin, out: out},
		interval: interval,
		pred:     pred,
		left:     left,
		right:    right,
	}
	j.reset()
	return j, nil
}

// reset clears the per-run state: the EOS flush leaves flushed and the
// merger at end-of-time, which would make every tuple of a later run late.
func (j *Join) reset() {
	j.leftWin = make(map[int64][]*stt.Tuple)
	j.rightWin = make(map[int64][]*stt.Tuple)
	j.merger = newWatermarkMerger(2)
	j.flushed = -1 << 62
}

// combine builds the joined tuple from a matching pair.
func (j *Join) combine(l, r *stt.Tuple) *stt.Tuple {
	values := make([]stt.Value, 0, len(l.Values)+len(r.Values))
	values = append(values, l.Values...)
	values = append(values, r.Values...)
	ts := l.Time
	if r.Time.After(ts) {
		ts = r.Time
	}
	theme := l.Theme
	if theme == "" {
		theme = r.Theme
	}
	tup := &stt.Tuple{
		Schema: j.out,
		Values: values,
		Time:   ts,
		Lat:    (l.Lat + r.Lat) / 2,
		Lon:    (l.Lon + r.Lon) / 2,
		Theme:  theme,
		Source: l.Source + "+" + r.Source,
	}
	return tup.AlignSTT()
}

// flush joins and emits every window whose end has passed the combined
// watermark, in window order with input order preserved inside a window.
func (j *Join) flush(wm time.Time, out Emitter) error {
	// Advance the flushed high-water mark from the watermark itself, so
	// late tuples are recognized even for windows that held no data.
	if limit := windowIndex(wm, j.interval); limit > j.flushed {
		j.flushed = limit
	}
	// Collect window indexes present on either side.
	seen := map[int64]bool{}
	for w := range j.leftWin {
		seen[w] = true
	}
	for w := range j.rightWin {
		seen[w] = true
	}
	var ready []int64
	for w := range seen {
		if !windowStart(w+1, j.interval).After(wm) {
			ready = append(ready, w)
		}
	}
	sort.Slice(ready, func(i, k int) bool { return ready[i] < ready[k] })
	for _, w := range ready {
		ls, rs := j.leftWin[w], j.rightWin[w]
		for _, l := range ls {
			for _, r := range rs {
				ok, err := j.pred.EvalBool(expr.Scope{Left: l, Right: r})
				if err != nil {
					return err
				}
				if ok {
					j.counters.Out.Add(1)
					out.Send(j.combine(l, r))
				}
			}
		}
		delete(j.leftWin, w)
		delete(j.rightWin, w)
	}
	return nil
}

// Run consumes both inputs, windowing each side and joining on flush.
// in[0] is the left input, in[1] the right.
func (j *Join) Run(in []*stream.Stream, out Emitter) error {
	defer out.Close()
	if len(in) != 2 {
		return fmt.Errorf("join %s: want exactly 2 inputs, got %d", j.name, len(in))
	}
	j.reset()

	ch0, ch1 := in[0].C, in[1].C
	var lastEmitted time.Time
	for ch0 != nil || ch1 != nil {
		var item stream.Item
		var ok bool
		var side int
		select {
		case item, ok = <-ch0:
			side = 0
			if !ok {
				ch0 = nil
				continue
			}
		case item, ok = <-ch1:
			side = 1
			if !ok {
				ch1 = nil
				continue
			}
		}
		switch item.Kind {
		case stream.ItemTuple:
			j.counters.In.Add(1)
			w := windowIndex(item.Tuple.Time, j.interval)
			if w < j.flushed {
				// Late tuple: its window already flushed. Count as dropped.
				j.counters.Dropped.Add(1)
				continue
			}
			if side == 0 {
				j.leftWin[w] = append(j.leftWin[w], item.Tuple)
			} else {
				j.rightWin[w] = append(j.rightWin[w], item.Tuple)
			}
		case stream.ItemWatermark:
			wm, defined := j.merger.update(side, item.Watermark)
			if defined && wm.After(lastEmitted) {
				if err := j.flush(wm, out); err != nil {
					return fmt.Errorf("join %s: %w", j.name, err)
				}
				out.SendWatermark(wm)
				lastEmitted = wm
			}
		case stream.ItemEOS:
			wm, defined := j.merger.end(side)
			if defined && wm.After(lastEmitted) {
				if err := j.flush(wm, out); err != nil {
					return fmt.Errorf("join %s: %w", j.name, err)
				}
				if j.merger.allEnded() {
					continue // EOS emitted by deferred Close
				}
				out.SendWatermark(wm)
				lastEmitted = wm
			}
		}
	}
	// Flush any remainder (both inputs ended without trailing watermarks).
	if err := j.flush(time.Unix(0, 1<<62).UTC(), out); err != nil {
		return fmt.Errorf("join %s: %w", j.name, err)
	}
	return nil
}
