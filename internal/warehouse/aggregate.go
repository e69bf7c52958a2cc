package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/ops"
	"streamloader/internal/partial"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// ErrInvalidAggQuery tags AggQuery validation failures (unknown function,
// missing field, bad group-by, negative bucket), so callers can answer
// them as client errors rather than evaluation faults.
var ErrInvalidAggQuery = errors.New("warehouse: invalid aggregate query")

// ErrTooManyGroups reports an aggregation whose group cardinality exceeded
// its MaxGroups bound — addressable by the caller (narrow the filter,
// coarsen the bucket, raise the bound), unlike an I/O failure.
var ErrTooManyGroups = errors.New("warehouse: aggregate group cardinality exceeds the bound")

// DefaultAggMaxGroups bounds the group cardinality one Aggregate call may
// produce; AggQuery.MaxGroups overrides it. The bound protects the process
// from a group-by × fine bucketing over a wide history materializing an
// unbounded result — the one way an aggregation, which otherwise touches no
// event slices, could still blow memory.
const DefaultAggMaxGroups = 100_000

// AggQuery is an aggregation pushed down into the warehouse: the usual
// Query filter (Limit is ignored — an aggregate has no page to cap) plus an
// aggregation spec. The query is evaluated as per-shard, per-segment partial
// aggregates merged at the top, never materializing a merged event list; a
// cold segment whose header stats fully cover the filter and grouping is
// answered without opening its event block at all. The partial states come
// from the partial package, so the same query can also be registered as a
// standing view and maintained incrementally (see view.go).
type AggQuery struct {
	Query

	// Func is the aggregation function: COUNT, SUM, AVG, MIN or MAX.
	Func ops.AggFunc
	// Field names the aggregated payload field. Required for SUM/AVG/MIN/
	// MAX, where only events carrying a numeric non-null value of it
	// contribute; optional for COUNT, where a named field counts events
	// whose value for it is present and non-null (matching the streaming
	// COUNT(attr) operator) and an empty field counts every matching event.
	Field string
	// GroupBy lists grouping dimensions: "source" and/or "theme" (the
	// event's primary Theme tag).
	GroupBy []string
	// Bucket, when positive, additionally groups results into fixed-width
	// event-time windows (time.Time.Truncate alignment).
	Bucket time.Duration
	// Window, when positive, restricts the result to the trailing window
	// ending at evaluation time: only buckets that still overlap
	// (now-Window, now] survive, judged on the evaluator's clock. It
	// requires a positive Bucket — expiry is bucket-granular, dropping a
	// whole frame exactly when its end leaves the window, so results stay
	// identical to re-aggregating the surviving buckets from scratch. On a
	// standing view the same rule drops expired frames by construction on
	// the publisher's clock (see view.go).
	Window time.Duration
	// MaxGroups bounds the result cardinality (0 = DefaultAggMaxGroups).
	MaxGroups int
}

// AggRow is one output group of an Aggregate call.
type AggRow struct {
	// Bucket is the window start; the zero time when the query had no
	// bucketing.
	Bucket time.Time
	// Source/Theme carry the group values for the dimensions grouped on,
	// empty otherwise (and for events genuinely lacking the tag).
	Source string
	Theme  string
	// Count is how many events contributed to the aggregate.
	Count int64
	// Value is the aggregate result: the count for COUNT, sum for SUM,
	// sum/count for AVG, and the extrema for MIN/MAX.
	Value float64
}

// aggPlan is a validated AggQuery with the grouping flags resolved.
type aggPlan struct {
	AggQuery
	groupSource, groupTheme bool
	// bareCount marks COUNT with no field: every matching event
	// contributes, which is what makes the cold-header fast path possible.
	bareCount bool
	maxGroups int
}

// plan validates the query and resolves the grouping spec.
func (q AggQuery) plan() (aggPlan, error) {
	p := aggPlan{AggQuery: q}
	fn, err := ops.ParseAggFunc(string(q.Func))
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrInvalidAggQuery, err)
	}
	p.Func = fn
	if fn != ops.AggCount && q.Field == "" {
		return p, fmt.Errorf("%w: %s needs a field", ErrInvalidAggQuery, fn)
	}
	p.bareCount = fn == ops.AggCount && q.Field == ""
	for _, g := range q.GroupBy {
		switch strings.ToLower(g) {
		case "source":
			p.groupSource = true
		case "theme":
			p.groupTheme = true
		default:
			return p, fmt.Errorf("%w: unknown group-by %q (want source, theme)", ErrInvalidAggQuery, g)
		}
	}
	if q.Bucket < 0 {
		return p, fmt.Errorf("%w: negative bucket %v", ErrInvalidAggQuery, q.Bucket)
	}
	if q.Window < 0 {
		return p, fmt.Errorf("%w: negative window %v", ErrInvalidAggQuery, q.Window)
	}
	if q.Window > 0 && q.Bucket <= 0 {
		return p, fmt.Errorf("%w: window %v needs a bucket (expiry is bucket-granular)", ErrInvalidAggQuery, q.Window)
	}
	p.maxGroups = q.MaxGroups
	if p.maxGroups <= 0 {
		p.maxGroups = DefaultAggMaxGroups
	}
	p.Limit = 0 // aggregates have no page; never let a Limit prune inputs
	return p, nil
}

// windowKeep returns the bucket-survival predicate of a windowed plan at
// evaluation time now: a bucket survives while its end is still inside the
// trailing window. Nil when the plan has no window (everything survives).
func (p *aggPlan) windowKeep(now time.Time) func(start time.Time) bool {
	if p.Window <= 0 {
		return nil
	}
	cutoff := now.Add(-p.Window)
	bucket := p.Bucket
	return func(start time.Time) bool { return start.Add(bucket).After(cutoff) }
}

// windowFrom tightens the plan's From bound to the earliest event time any
// surviving bucket can contain — a conservative pre-filter (one spare bucket
// of slack) that lets scans prune history the keep-predicate would discard
// anyway. The keep-predicate stays the authority on what is emitted.
func (p *aggPlan) windowFrom(now time.Time) {
	if p.Window <= 0 {
		return
	}
	lower := now.Add(-p.Window).Truncate(p.Bucket).Add(-p.Bucket)
	// Windows bound time alone: the later From is kept.
	if p.From.IsZero() || p.From.Before(lower) {
		p.From = lower
	}
}

// scanPlan is the plan's filter plus the columns folding an event reads
// beyond the filter's own: theme and source when grouped on, and of the
// payload only the aggregated field.
func (p *aggPlan) scanPlan() scanPlan {
	proj := p.Query.projection()
	if p.Cond == "" {
		if p.groupTheme {
			proj.Mask |= persist.ColTheme
		}
		if p.groupSource {
			proj.Mask |= persist.ColSource
		}
		if !p.bareCount {
			proj.Field = p.Field
		}
	}
	return scanPlan{Query: p.Query, proj: proj}
}

// aggVisitor folds matching events into per-group partial states: into the
// flat group map of one scan, or — for a standing view's tap and checkpoint
// tail fold — into the bucketed store, where each event files under the
// frame of its own bucket so retention cuts and window expiry can drop whole
// frames later.
//
// A visitor lives for one fold (a shard's scan, a tap's onCommit) and
// memoizes what consecutive events repeat: the aggregated field's slot in
// the last schema seen, and the last group an event landed in with the
// coordinates that pick it, so a run of events in one group pays one group
// lookup, not one per event. Groups are never removed while a visitor
// folds, so the remembered state stays the group's.
type aggVisitor struct {
	noShortcuts
	p     *aggPlan
	flat  map[partial.Key]*partial.State
	store *partial.Store

	// schema is the last event schema seen, slot the field's index in it
	// (-1: the schema lacks the field).
	schema *stt.Schema
	slot   int
	// last is the group the last folded event landed in: the events of
	// source lastSource and theme lastTheme (the grouped-on values, empty
	// otherwise) in the bucket [lastFrom, lastTo) — any time, unbucketed.
	last                  *partial.State
	lastFrom, lastTo      time.Time
	lastSource, lastTheme string
}

// group returns the state of one group, nil when creating it would exceed
// the cardinality bound. bs is the bucket start, zero when unbucketed.
func (v *aggVisitor) group(key partial.Key, bs time.Time) *partial.State {
	if v.store != nil {
		return v.store.Group(key, bs, v.p.maxGroups)
	}
	st := v.flat[key]
	if st == nil {
		if len(v.flat) >= v.p.maxGroups {
			return nil
		}
		st = partial.New(bs)
		v.flat[key] = st
	}
	return st
}

// groupOf returns the state of the group t falls in: the remembered one
// while t's grouped-on values match it and its time stays in its bucket,
// else the group looked up afresh, which is then remembered. Nil when
// creating the group would exceed the cardinality bound.
func (v *aggVisitor) groupOf(t *stt.Tuple) *partial.State {
	p := v.p
	source, theme := "", ""
	if p.groupSource {
		source = t.Source
	}
	if p.groupTheme {
		theme = t.Theme
	}
	if v.last != nil && source == v.lastSource && theme == v.lastTheme &&
		(p.Bucket <= 0 || !t.Time.Before(v.lastFrom) && t.Time.Before(v.lastTo)) {
		return v.last
	}
	var bs time.Time
	if p.Bucket > 0 {
		bs = t.Time.Truncate(p.Bucket)
	}
	st := v.group(partial.BucketKey(bs, source, theme), bs)
	if st != nil {
		v.last, v.lastSource, v.lastTheme = st, source, theme
		v.lastFrom, v.lastTo = bs, bs.Add(p.Bucket)
	}
	return st
}

// event folds one matching event. Only events carrying the field
// contribute to a field aggregate: with a non-null value for COUNT, a
// numeric one for the others; a bare COUNT takes every event.
func (v *aggVisitor) event(ev Event) error {
	t, p := ev.Tuple, v.p
	var f float64
	if !p.bareCount {
		if t.Schema != v.schema {
			v.schema, v.slot = t.Schema, t.Schema.IndexOf(p.Field)
		}
		if v.slot < 0 {
			return nil
		}
		val := t.Values[v.slot]
		if p.Func == ops.AggCount {
			if val.IsNull() {
				return nil
			}
		} else {
			if !val.Kind().Numeric() {
				return nil
			}
			f = val.AsFloat()
		}
	}
	st := v.groupOf(t)
	if st == nil {
		return errAggGroups
	}
	if p.Func == ops.AggCount {
		st.ObserveCount(1)
	} else {
		st.Observe(f)
	}
	return nil
}

func (v *aggVisitor) done() int { return len(v.flat) }

// add folds a header- or chunk-derived count into a group.
func (v *aggVisitor) add(bs time.Time, source, theme string, n int) error {
	st := v.group(partial.BucketKey(bs, source, theme), bs)
	if st == nil {
		return errAggGroups
	}
	st.ObserveCount(int64(n))
	return nil
}

var errAggGroups = fmt.Errorf("%w (narrow the filter, coarsen the bucket, or raise MaxGroups)", ErrTooManyGroups)

// file answers one cold segment purely from its in-RAM header stats,
// without opening the event block. It applies only when every live
// event's contribution is fully determined by the header:
//
//   - bare COUNT (a field or numeric aggregate needs payload values);
//   - no Region or Cond (the header has no spatial or payload stats);
//   - the [From, To) window covers every live event, and — under
//     bucketing — the whole live envelope lands in a single bucket;
//   - the source and theme dimensions are not constrained simultaneously
//     (the header has per-source and per-theme counts, never the cross);
//   - a theme group-by needs the primary-theme header stats (files written
//     before that field fall back to reads), with no theme filter on top;
//     a theme filter alone must name exactly one theme, not the empty one,
//     whose ThemeCounts entry is precisely the matchTheme cardinality.
//
// The error is only ever group-cardinality overflow.
func (v *aggVisitor) file(cs *coldSegment) (bool, error) {
	p := v.p
	if !p.bareCount || p.Region != nil || p.Cond != "" {
		return false, nil
	}
	if !cs.coveredBy(p.From, p.To) {
		return false, nil
	}
	var bs time.Time
	if p.Bucket > 0 {
		// A bucket is a span of time, so the envelope's times place it.
		hb, tb := cs.head.Time.Truncate(p.Bucket), cs.tail.Time.Truncate(p.Bucket)
		if !hb.Equal(tb) {
			return false, nil
		}
		bs = hb
	}
	needSource := p.groupSource || len(p.Sources) > 0
	needTheme := p.groupTheme || len(p.Themes) > 0
	switch {
	case needSource && needTheme:
		return false, nil
	case p.groupTheme:
		if len(p.Themes) > 0 || cs.primaryThemes == nil {
			return false, nil
		}
		named := 0
		for th, n := range cs.primaryThemes {
			named += n
			if err := v.add(bs, "", th, n); err != nil {
				return true, err
			}
		}
		if rem := cs.count - named; rem > 0 {
			if err := v.add(bs, "", "", rem); err != nil {
				return true, err
			}
		}
	case needTheme:
		if len(p.Themes) != 1 || p.Themes[0] == "" {
			return false, nil
		}
		if n := cs.themeCounts[p.Themes[0]]; n > 0 {
			if err := v.add(bs, "", "", n); err != nil {
				return true, err
			}
		}
	case needSource:
		named := 0
		for src, n := range cs.sourceCounts {
			named += n
			if len(p.Sources) > 0 && !containsString(p.Sources, src) {
				continue
			}
			group := ""
			if p.groupSource {
				group = src
			}
			if err := v.add(bs, group, "", n); err != nil {
				return true, err
			}
		}
		// Events with an empty source are absent from sourceCounts; the
		// remainder is exactly them.
		if rem := cs.count - named; rem > 0 && (len(p.Sources) == 0 || containsString(p.Sources, "")) {
			if err := v.add(bs, "", "", rem); err != nil {
				return true, err
			}
		}
	default:
		if err := v.add(bs, "", "", cs.count); err != nil {
			return true, err
		}
	}
	return true, nil
}

// addStats folds one chunk's field summary into a group. A summary with no
// contributing events adds no group — a row exists only when at least one
// event contributed — so this can be called unconditionally for an answered
// chunk.
func (v *aggVisitor) addStats(bs time.Time, source, theme string, fs persist.FieldStats) error {
	contrib := fs.Num
	if v.p.Func == ops.AggCount {
		contrib = fs.NonNull
	}
	if contrib == 0 {
		return nil
	}
	st := v.group(partial.BucketKey(bs, source, theme), bs)
	if st == nil {
		return errAggGroups
	}
	if v.p.Func == ops.AggCount {
		st.ObserveCount(int64(fs.NonNull))
	} else {
		st.ObserveStats(int64(fs.Num), float64(fs.Sum), float64(fs.Min), float64(fs.Max))
	}
	return nil
}

// hotChunks reports whether chunk can answer anything of this plan: it
// cannot under a Region or Cond, which no chunk stats describe.
func (v *aggVisitor) hotChunks() bool { return v.p.Region == nil && v.p.Cond == "" }

// chunk extends the header fast path one level down: it folds a chunk of n
// events — of a cold file or of a sealed in-memory segment — from its stats
// alone, without a decode or a per-event fold. A chunk is stats-answerable
// when its [minTime, MaxTime] envelope lands inside the query window and —
// under bucketing — in one bucket, there is no Region or Cond, and the
// filter and grouping resolve from the chunk's count maps: a bare COUNT
// folds per-source or per-theme counts exactly like the header path; a
// field aggregate needs every chunk event to pass the filter and a uniform
// group key, and then folds the chunk's per-field Num/Sum/Min/Max frame. A
// chunk the filter provably rejects outright (no matching source or theme
// present) is answered too — with nothing. The error is only ever
// group-cardinality overflow.
func (v *aggVisitor) chunk(st *persist.ChunkStats, minTime time.Time, n int) (bool, error) {
	p := v.p
	if !v.hotChunks() {
		return false, nil
	}
	if !p.From.IsZero() && minTime.Before(p.From) {
		return false, nil
	}
	if !p.To.IsZero() && !st.MaxTime.Before(p.To) {
		return false, nil
	}
	var bs time.Time
	if p.Bucket > 0 {
		// As for a file: the chunk's times place its bucket.
		hb, tb := minTime.Truncate(p.Bucket), st.MaxTime.Truncate(p.Bucket)
		if !hb.Equal(tb) {
			return false, nil
		}
		bs = hb
	}

	// Resolve the source filter against the chunk: srcMatched is the exact
	// number of chunk events passing it (always computable — per-source
	// counts partition the chunk).
	srcMatched, srcNamed := n, 0
	if len(p.Sources) > 0 {
		srcMatched = 0
		for src, c := range st.SourceCounts {
			srcNamed += c
			if containsString(p.Sources, src) {
				srcMatched += c
			}
		}
		if containsString(p.Sources, "") {
			srcMatched += n - srcNamed
		}
		if srcMatched == 0 {
			return true, nil // provably no match: skip without a read
		}
	}
	srcFull := srcMatched == n

	// Resolve the theme filter: thMatched is exact for a single-theme
	// filter, and for several themes only the all-or-nothing cases resolve
	// (matchTheme counts overlap, so a partial union is unknowable).
	thMatched := n
	if len(p.Themes) > 0 {
		if containsString(p.Themes, "") {
			return false, nil // no count holds the events without a theme
		}
		allZero, full := true, false
		for _, th := range p.Themes {
			c := st.ThemeCounts[th]
			if c > 0 {
				allZero = false
			}
			if c == n {
				full = true
			}
		}
		switch {
		case allZero:
			return true, nil // provably no match
		case full:
			thMatched = n
		case len(p.Themes) == 1:
			thMatched = st.ThemeCounts[p.Themes[0]]
		default:
			return false, nil
		}
	}
	thFull := thMatched == n

	if p.bareCount {
		switch {
		case p.groupSource && p.groupTheme:
			return false, nil // no source×theme cross in the stats
		case p.groupSource:
			if !thFull {
				return false, nil
			}
			for src, c := range st.SourceCounts {
				if len(p.Sources) > 0 && !containsString(p.Sources, src) {
					continue
				}
				if err := v.add(bs, src, "", c); err != nil {
					return true, err
				}
			}
			if rem := n - sumCounts(st.SourceCounts); rem > 0 && (len(p.Sources) == 0 || containsString(p.Sources, "")) {
				if err := v.add(bs, "", "", rem); err != nil {
					return true, err
				}
			}
			return true, nil
		case p.groupTheme:
			if !srcFull || !thFull {
				return false, nil
			}
			named := 0
			for th, c := range st.PrimaryThemeCounts {
				named += c
				if err := v.add(bs, "", th, c); err != nil {
					return true, err
				}
			}
			if rem := n - named; rem > 0 {
				if err := v.add(bs, "", "", rem); err != nil {
					return true, err
				}
			}
			return true, nil
		default:
			// No grouping: one of the filters must be exactly resolvable.
			var m int
			switch {
			case srcFull:
				m = thMatched
			case thFull:
				m = srcMatched
			default:
				return false, nil
			}
			if m > 0 {
				return true, v.add(bs, "", "", m)
			}
			return true, nil
		}
	}

	// Field aggregates: the whole chunk must contribute (any filtered-out
	// event would poison the pre-aggregated frame) under a uniform group key,
	// and the chunk's numeric frame must be total — NaN/Inf values cannot
	// ride in the stats, so their chunks decode.
	if !srcFull || !thFull {
		return false, nil
	}
	if p.Func != ops.AggCount && st.Fields[p.Field].NonFinite > 0 {
		return false, nil
	}
	source, theme := "", ""
	if p.groupSource {
		src, uniform := uniformKey(st.SourceCounts, n)
		if !uniform {
			return false, nil
		}
		source = src
	}
	if p.groupTheme {
		th, uniform := uniformKey(st.PrimaryThemeCounts, n)
		if !uniform {
			return false, nil
		}
		theme = th
	}
	return true, v.addStats(bs, source, theme, st.Fields[p.Field])
}

// sumCounts totals a count map.
func sumCounts(m map[string]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// uniformKey reports whether every one of n events carries the same key in
// a partitioning count map — one entry covering all n, or no entry at all
// (every event carries the empty key).
func uniformKey(m map[string]int, n int) (string, bool) {
	if len(m) == 0 {
		return "", true
	}
	if len(m) == 1 {
		for k, c := range m {
			if c == n {
				return k, true
			}
		}
	}
	return "", false
}

// rowsFromPartials builds the sorted output rows from a merged group map.
// Shared by the one-shot Aggregate path and materialized-view snapshots, so
// both produce identical rows for identical partials.
func (p *aggPlan) rowsFromPartials(merged map[partial.Key]*partial.State) []AggRow {
	rows := make([]AggRow, 0, len(merged))
	for k, st := range merged {
		rows = append(rows, AggRow{
			Bucket: st.Bucket,
			Source: k.Source,
			Theme:  k.Theme,
			Count:  st.Count,
			Value:  st.Value(p.Func),
		})
	}
	// Rows, not events: (bucket, source, theme) is unique per row, so a
	// bucket's start is all the time they need.
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if !a.Bucket.Equal(b.Bucket) {
			return a.Bucket.Before(b.Bucket)
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Theme < b.Theme
	})
	return rows
}

// Aggregate evaluates an aggregation over the store without materializing a
// merged event list: each shard folds its matching events (or, for cold
// files and chunks whose stats determine their contribution, the stats) into
// partial aggregates, and the partials merge at the top. Rows come back
// sorted by (bucket, source, theme). A group appears only when at least one
// event contributed to it. Telemetry, tracing (obs.WithTrace) and
// cancellation are Select's.
func (w *Warehouse) Aggregate(ctx context.Context, q AggQuery) ([]AggRow, QueryStats, error) {
	t0 := w.met.aggregate.Start()
	defer w.met.aggregate.Since(t0)
	p, err := q.plan()
	if err != nil {
		return nil, QueryStats{}, err
	}
	now := w.now()
	p.windowFrom(now)
	pl := p.scanPlan()
	vs, _, qs, err := scanShards(ctx, w, &pl, func() *aggVisitor {
		return &aggVisitor{p: &p, flat: map[partial.Key]*partial.State{}}
	})
	if err != nil {
		return nil, qs, err
	}
	// Merge in shard order, so equal-key float partials combine in a
	// deterministic order run to run. The per-shard maps are throwaway, so
	// the merge may take ownership of their states (no clone).
	msp := obs.TraceFrom(ctx).Start("merge")
	merged := map[partial.Key]*partial.State{}
	for _, v := range vs {
		if !partial.Merge(merged, v.flat, p.maxGroups, false) {
			msp.End()
			return nil, qs, errAggGroups
		}
	}
	if keep := p.windowKeep(now); keep != nil {
		for k, st := range merged {
			if !keep(st.Bucket) {
				delete(merged, k)
			}
		}
	}
	msp.SetInt("groups", int64(len(merged)))
	msp.End()
	return p.rowsFromPartials(merged), qs, nil
}
