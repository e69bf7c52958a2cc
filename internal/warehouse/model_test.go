package warehouse

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/ops"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// This file model-checks the segmented warehouse: randomized, seeded
// operation sequences run against both the real store and a deliberately
// naive in-memory reference model, and every observable result — Select
// contents and order, Count, Len, Evicted, and every live standing view's
// incrementally-maintained rows — must agree. Failing sequences
// are shrunk to a minimal reproduction before being reported, so a broken
// invariant prints a handful of operations, not hundreds.

// mop is one generated warehouse operation.
type mop struct {
	kind   mopKind
	tuples []*stt.Tuple // append (1 tuple) / appendBatch
	q      Query        // selectOp / countOp
	aq     AggQuery     // aggregateOp
	retain int          // setRetention
}

type mopKind int

const (
	opAppend mopKind = iota
	opAppendBatch
	opSelect
	// opCount draws from the same generator as opSelect, Cond and Limit
	// included, so the count visitor's own Cond evaluation and Limit cap are
	// checked against the model on every config.
	opCount
	// opAggregate pushes a randomized aggregation (function × group-by ×
	// bucket × filter) down into the warehouse and checks the rows against
	// a naive aggregation over the reference event list — including the
	// cold-header fast paths, which must be indistinguishable from full
	// materialization.
	opAggregate
	opSetRetention
	// opReopen hard-closes the warehouse mid-run (simulating a crash) and
	// reopens it from its data dir; only generated for durable configs.
	opReopen
	// opCrashMidSpill crashes during an in-flight background spill: a
	// sealed segment's file has been written and published, but the crash
	// lands before the swap installs it and before the WAL checkpoints —
	// so the same events exist both in the file and in the log. Recovery
	// must register the file and dedupe the WAL against it by sequence:
	// no acked event lost, none duplicated. Durable configs only.
	opCrashMidSpill
	// opCompact runs the background cold-file compactor to completion
	// (CompactNow): small and time-overlapping cold files merge into
	// neighbors. Compaction must be observationally invisible — the
	// reference model does not even know it exists. Durable configs only.
	opCompact
	// opSubscribe registers a randomized standing view (up to two live at
	// a time; the oldest is released). From then on every op is followed
	// by a delta check: the view's incrementally-maintained Rows must
	// equal the naive model's re-aggregation — across appends, retention
	// cuts and crash recovery (views are re-registered after a reopen,
	// like a reconnecting client).
	opSubscribe
)

func (o mop) String() string {
	switch o.kind {
	case opAppend:
		t := o.tuples[0]
		return fmt.Sprintf("Append{%s @%s}", t.Source, t.Time.Format("15:04:05"))
	case opAppendBatch:
		srcs := make([]string, 0, len(o.tuples))
		for _, t := range o.tuples {
			srcs = append(srcs, fmt.Sprintf("%s@%s", t.Source, t.Time.Format("15:04:05")))
		}
		return fmt.Sprintf("AppendBatch{%s}", strings.Join(srcs, " "))
	case opSelect:
		return fmt.Sprintf("Select{%s}", queryString(o.q))
	case opCount:
		return fmt.Sprintf("Count{%s}", queryString(o.q))
	case opAggregate:
		return fmt.Sprintf("Aggregate{%s %s}", aggString(o.aq), queryString(o.aq.Query))
	case opSubscribe:
		return fmt.Sprintf("Subscribe{%s %s}", aggString(o.aq), queryString(o.aq.Query))
	case opReopen:
		return "CrashReopen{}"
	case opCrashMidSpill:
		return "CrashMidSpill{}"
	case opCompact:
		return "CompactNow{}"
	default:
		return fmt.Sprintf("SetRetention{%d}", o.retain)
	}
}

func aggString(aq AggQuery) string {
	spec := string(aq.Func)
	if aq.Field != "" {
		spec += "(" + aq.Field + ")"
	}
	if len(aq.GroupBy) > 0 {
		spec += " by " + strings.Join(aq.GroupBy, ",")
	}
	if aq.Bucket > 0 {
		spec += fmt.Sprintf(" bucket=%s", aq.Bucket)
	}
	if aq.Window > 0 {
		spec += fmt.Sprintf(" window=%s", aq.Window)
	}
	return spec
}

func queryString(q Query) string {
	var parts []string
	if !q.From.IsZero() {
		parts = append(parts, "from="+q.From.Format("15:04:05"))
	}
	if !q.To.IsZero() {
		parts = append(parts, "to="+q.To.Format("15:04:05"))
	}
	if q.Region != nil {
		parts = append(parts, "region")
	}
	if len(q.Themes) > 0 {
		parts = append(parts, "themes="+strings.Join(q.Themes, ","))
	}
	if len(q.Sources) > 0 {
		parts = append(parts, "sources="+strings.Join(q.Sources, ","))
	}
	if q.Cond != "" {
		parts = append(parts, "cond="+q.Cond)
	}
	if q.Limit > 0 {
		parts = append(parts, fmt.Sprintf("limit=%d", q.Limit))
	}
	return strings.Join(parts, " ")
}

// refModel is the naive reference: a flat event list, linear-scan queries,
// and retention implemented by sorting everything. No shards, no segments,
// no indexes — just the specification.
type refModel struct {
	events  []Event
	nextSeq uint64
	retain  int
	evicted int
}

func (m *refModel) append(tuples ...*stt.Tuple) {
	for _, t := range tuples {
		m.events = append(m.events, Event{Seq: m.nextSeq, Tuple: t})
		m.nextSeq++
	}
	m.compact()
}

// compact mirrors the warehouse retention contract: when the store exceeds
// the bound, the globally-oldest events (by event time, then Seq) are
// dropped down to 3/4 of the bound.
func (m *refModel) compact() {
	if m.retain <= 0 || len(m.events) <= m.retain {
		return
	}
	keep := m.retain * 3 / 4
	if keep < 1 {
		keep = 1
	}
	if keep >= len(m.events) {
		return
	}
	sort.SliceStable(m.events, func(i, j int) bool { return eventLess(m.events[i], m.events[j]) })
	m.evicted += len(m.events) - keep
	m.events = append([]Event(nil), m.events[len(m.events)-keep:]...)
}

func (m *refModel) setRetention(n int) {
	m.retain = n
	m.compact()
}

// selectQ filters and sorts the flat list; condTemp handles the one
// condition shape the generator emits ("temperature > X") by direct field
// access, independent of the expr engine under test.
func (m *refModel) selectQ(q Query) []Event {
	var out []Event
	for _, ev := range m.events {
		if m.matches(ev.Tuple, q) {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return eventLess(out[i], out[j]) })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

func (m *refModel) matches(t *stt.Tuple, q Query) bool {
	if !q.From.IsZero() && t.Time.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !t.Time.Before(q.To) {
		return false
	}
	if q.Region != nil && !q.Region.Contains(geo.Point{Lat: t.Lat, Lon: t.Lon}) {
		return false
	}
	if len(q.Themes) > 0 && !matchTheme(t, q.Themes) {
		return false
	}
	if len(q.Sources) > 0 && !containsString(q.Sources, t.Source) {
		return false
	}
	if q.Cond != "" {
		var threshold float64
		if _, err := fmt.Sscanf(q.Cond, "temperature > %f", &threshold); err != nil {
			panic("model: unsupported cond " + q.Cond)
		}
		if t.Schema.IndexOf("temperature") < 0 {
			return false // cond does not type-check against other schemas
		}
		if t.MustGet("temperature").AsFloat() <= threshold {
			return false
		}
	}
	return true
}

// aggregate is the naive reference aggregation: filter the flat event list
// with matches, fold contributions in insertion order, emit rows sorted by
// (bucket, source, theme). It deliberately re-states the contribution
// semantics — bare COUNT counts every match, COUNT(field) counts present
// non-null values, numeric functions fold present numeric values — without
// sharing any engine code. The generator only emits integral field values,
// so float sums are exact and order-independent: rows must match the
// engine's bit for bit.
// now is the evaluation clock for trailing-window queries; ignored when
// the query has no window.
func (m *refModel) aggregate(q AggQuery, now time.Time) []AggRow {
	groupSource, groupTheme := false, false
	for _, g := range q.GroupBy {
		switch g {
		case "source":
			groupSource = true
		case "theme":
			groupTheme = true
		}
	}
	bare := q.Func == ops.AggCount && q.Field == ""
	type key struct {
		sec    int64
		ns     int
		source string
		theme  string
	}
	type state struct {
		bucket     time.Time
		count      int64
		sum        float64
		minV, maxV float64
	}
	acc := map[key]*state{}
	for _, ev := range m.events {
		t := ev.Tuple
		if !m.matches(t, q.Query) {
			continue
		}
		var f float64
		if !bare {
			v, ok := t.Get(q.Field)
			if q.Func == ops.AggCount {
				if !ok || v.IsNull() {
					continue
				}
			} else {
				if !ok || !v.Kind().Numeric() {
					continue
				}
				f = v.AsFloat()
			}
		}
		var k key
		var bs time.Time
		if q.Bucket > 0 {
			bs = t.Time.Truncate(q.Bucket)
			// Trailing window: a bucket survives while its end is still
			// inside the window — the same predicate as windowKeep.
			if q.Window > 0 && !bs.Add(q.Bucket).After(now.Add(-q.Window)) {
				continue
			}
			k.sec, k.ns = bs.Unix(), bs.Nanosecond()
		}
		if groupSource {
			k.source = t.Source
		}
		if groupTheme {
			k.theme = t.Theme
		}
		st := acc[k]
		if st == nil {
			st = &state{bucket: bs, minV: math.Inf(1), maxV: math.Inf(-1)}
			acc[k] = st
		}
		st.count++
		if !bare && q.Func != ops.AggCount {
			st.sum += f
			st.minV = math.Min(st.minV, f)
			st.maxV = math.Max(st.maxV, f)
		}
	}
	rows := make([]AggRow, 0, len(acc))
	for k, st := range acc {
		var val float64
		switch q.Func {
		case ops.AggCount:
			val = float64(st.count)
		case ops.AggSum:
			val = st.sum
		case ops.AggAvg:
			val = st.sum / float64(st.count)
		case ops.AggMin:
			val = st.minV
		case ops.AggMax:
			val = st.maxV
		}
		rows = append(rows, AggRow{Bucket: st.bucket, Source: k.source, Theme: k.theme, Count: st.count, Value: val})
	}
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

// genOps builds a random op sequence. Times mostly advance (the hot-segment
// path) with occasional deep stragglers (the out-of-order path), sources
// come from a small pool so shards see interleaved streams, and retention
// flips between off, loose and tight bounds. withReopen additionally mixes
// in crash/reopen ops for durable configurations. ties draws every event
// time from three instants instead — t0 and the two minutes after it, the
// shape a schema's granularity gives a fleet — so the (time, seq) order of
// retention cuts and select merges rests on seq alone.
func genOps(r *rand.Rand, n int, withReopen, ties bool) []mop {
	sources := []string{"umeda", "namba", "kyoto", "sakai", "kobe", "nara"}
	clock := 0 // minutes since t0
	if ties {
		clock = 2
	}
	genTuple := func() *stt.Tuple {
		if ties {
			off := time.Duration(r.Intn(3)) * time.Minute
			if r.Intn(5) == 0 {
				return sTuple(off, "msg")
			}
			return wTuple(off, float64(r.Intn(40)), sources[r.Intn(len(sources))],
				34.4+r.Float64()*0.5, 135.2+r.Float64()*0.5)
		}
		if r.Intn(5) == 0 {
			clock += r.Intn(4) // social tuple rides the same clock
			return sTuple(time.Duration(clock)*time.Minute, fmt.Sprintf("msg-%d", clock))
		}
		off := clock
		if r.Intn(5) == 0 {
			off -= 30 + r.Intn(300) // straggler, possibly before t0
		} else {
			clock += r.Intn(4)
			off = clock
		}
		src := sources[r.Intn(len(sources))]
		return wTuple(time.Duration(off)*time.Minute, float64(r.Intn(40)),
			src, 34.4+r.Float64()*0.5, 135.2+r.Float64()*0.5)
	}
	genQuery := func() Query {
		var q Query
		if r.Intn(2) == 0 {
			from := r.Intn(clock + 1)
			q.From = t0.Add(time.Duration(from) * time.Minute)
			q.To = q.From.Add(time.Duration(1+r.Intn(120)) * time.Minute)
		}
		switch r.Intn(4) {
		case 0:
			q.Themes = []string{[]string{"weather", "social"}[r.Intn(2)]}
		case 1:
			q.Sources = []string{sources[r.Intn(len(sources))], sources[r.Intn(len(sources))]}
		case 2:
			lat, lon := 34.4+r.Float64()*0.4, 135.2+r.Float64()*0.4
			rect := geo.NewRect(geo.Point{Lat: lat, Lon: lon},
				geo.Point{Lat: lat + 0.2, Lon: lon + 0.2})
			q.Region = &rect
		}
		if r.Intn(4) == 0 {
			q.Cond = fmt.Sprintf("temperature > %d", r.Intn(40))
		}
		if r.Intn(4) == 0 {
			q.Limit = 1 + r.Intn(20)
		}
		return q
	}
	genAgg := func() AggQuery {
		aq := AggQuery{Query: genQuery()}
		aq.Limit = 0 // aggregates ignore Limit; keep the op readable
		fns := []ops.AggFunc{ops.AggCount, ops.AggCount, ops.AggSum, ops.AggAvg, ops.AggMin, ops.AggMax}
		aq.Func = fns[r.Intn(len(fns))]
		if aq.Func != ops.AggCount || r.Intn(2) == 0 {
			aq.Field = "temperature"
		}
		switch r.Intn(4) {
		case 1:
			aq.GroupBy = []string{"source"}
		case 2:
			aq.GroupBy = []string{"theme"}
		case 3:
			aq.GroupBy = []string{"source", "theme"}
		}
		buckets := []time.Duration{0, 0, 5 * time.Minute, 17 * time.Minute, time.Hour}
		aq.Bucket = buckets[r.Intn(len(buckets))]
		// Trailing windows (bucketed queries only — expiry is
		// bucket-granular): short enough against the pinned clock that
		// runs see both surviving and expired buckets.
		if aq.Bucket > 0 && r.Intn(3) == 0 {
			windows := []time.Duration{30 * time.Minute, 2 * time.Hour, 6 * time.Hour}
			aq.Window = windows[r.Intn(len(windows))]
		}
		return aq
	}

	mops := make([]mop, 0, n)
	for i := 0; i < n; i++ {
		if withReopen && r.Intn(18) == 0 {
			// Mix crashes (half of them mid-spill: the victim segment's file
			// is on disk but never swapped in or checkpointed) with forced
			// cold-file compactions.
			switch r.Intn(3) {
			case 0:
				mops = append(mops, mop{kind: opCrashMidSpill})
			case 1:
				mops = append(mops, mop{kind: opReopen})
			default:
				mops = append(mops, mop{kind: opCompact})
			}
			continue
		}
		switch k := r.Intn(13); {
		case k < 4:
			mops = append(mops, mop{kind: opAppend, tuples: []*stt.Tuple{genTuple()}})
		case k < 6:
			batch := make([]*stt.Tuple, 1+r.Intn(20))
			for j := range batch {
				batch[j] = genTuple()
			}
			mops = append(mops, mop{kind: opAppendBatch, tuples: batch})
		case k < 8:
			mops = append(mops, mop{kind: opSelect, q: genQuery()})
		case k < 9:
			mops = append(mops, mop{kind: opCount, q: genQuery()})
		case k < 11:
			mops = append(mops, mop{kind: opAggregate, aq: genAgg()})
		case k < 12:
			retain := 0
			if r.Intn(3) > 0 {
				retain = 10 + r.Intn(150)
			}
			mops = append(mops, mop{kind: opSetRetention, retain: retain})
		default:
			mops = append(mops, mop{kind: opSubscribe, aq: genAgg()})
		}
	}
	return mops
}

// runOps replays the sequence against a fresh warehouse and model, checking
// every observable after every op. A config with a DataDir sentinel runs
// durably in a fresh temp directory (cleaned up on return) and honors
// opReopen by hard-closing and recovering. It returns a description of the
// first divergence, or "" when the run agrees — side-effect free, so the
// shrinker can replay candidate subsequences.
func runOps(cfg Config, mops []mop) string {
	durable := cfg.DataDir != ""
	var w *Warehouse
	if durable {
		dir, err := os.MkdirTemp("", "whmodel")
		if err != nil {
			return fmt.Sprintf("tempdir: %v", err)
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		ww, err := Open(cfg)
		if err != nil {
			return fmt.Sprintf("open: %v", err)
		}
		w = ww
		defer func() { w.CloseHard() }()
	} else {
		w = NewWithConfig(cfg)
	}
	// Pin the warehouse clock to the model's: trailing-window semantics
	// must evaluate against the same "now" on both sides, and wall-clock
	// nondeterminism would make shrinking useless. The pinned clock
	// follows the newest event time appended so far (atomically — the
	// view publisher goroutines read it concurrently).
	var nowMin atomic.Int64 // minutes past t0
	modelNow := func() time.Time { return t0.Add(time.Duration(nowMin.Load()) * time.Minute) }
	w.nowFn = modelNow
	advanceClock := func(tuples []*stt.Tuple) {
		for _, tp := range tuples {
			if min := int64(tp.Time.Sub(t0) / time.Minute); min > nowMin.Load() {
				nowMin.Store(min)
			}
		}
	}
	m := &refModel{}
	// Live standing views (at most two at a time; the oldest is released).
	// Once registered, every subsequent op ends with a delta check: the
	// view's incrementally-maintained rows must equal the naive model's
	// re-aggregation — the quiescent-point equality the view machinery
	// promises, exercised across appends, retention cuts and crashes.
	type liveView struct {
		v  *View
		aq AggQuery
	}
	var views []liveView
	defer func() {
		for _, lv := range views {
			lv.v.Release()
		}
	}()
	// The warehouse's Evicted counter restarts at zero on reopen; offset
	// tracks the model evictions already accounted before the last crash.
	evictedOffset := 0
	retain := 0
	for i, op := range mops {
		switch op.kind {
		case opAppend:
			if err := w.Append(op.tuples[0]); err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			m.append(op.tuples[0])
			advanceClock(op.tuples)
		case opAppendBatch:
			if err := w.AppendBatch(op.tuples); err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			m.append(op.tuples...)
			advanceClock(op.tuples)
		case opSelect:
			got, _, err := w.Select(context.Background(), op.q)
			if err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			if diff := diffEvents(got, m.selectQ(op.q)); diff != "" {
				return fmt.Sprintf("op %d %s: %s", i, op, diff)
			}
		case opCount:
			got, _, err := w.Count(context.Background(), op.q)
			if err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			if want := len(m.selectQ(op.q)); got != want {
				return fmt.Sprintf("op %d %s: count = %d, model = %d", i, op, got, want)
			}
		case opAggregate:
			got, _, err := w.Aggregate(context.Background(), op.aq)
			if err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			if diff := diffAggRows(got, m.aggregate(op.aq, modelNow())); diff != "" {
				return fmt.Sprintf("op %d %s: %s", i, op, diff)
			}
		case opSetRetention:
			retain = op.retain
			w.SetRetention(op.retain)
			m.setRetention(op.retain)
		case opCompact:
			w.CompactNow() // in-memory configs: no-op
		case opSubscribe:
			v, err := w.RegisterView(op.aq, ops.UpdatePolicy{})
			if err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			if len(views) == 2 {
				views[0].v.Release()
				views = views[1:]
			}
			views = append(views, liveView{v: v, aq: op.aq})
		case opReopen, opCrashMidSpill:
			if !durable {
				continue
			}
			if op.kind == opCrashMidSpill {
				// Freeze the spill worker as the crash would, then write —
				// but never install — one sealed segment's file, leaving
				// exactly the on-disk state of a kill between the file
				// rename and the swap.
				w.spill.abort()
				forceSpillFileNoInstall(w)
			}
			w.CloseHard()
			ww, err := Open(cfg)
			if err != nil {
				return fmt.Sprintf("op %d %s: %v", i, op, err)
			}
			w = ww
			w.nowFn = modelNow // re-pin the recovered store's clock
			evictedOffset = m.evicted
			// Retention is configuration, not data: re-arm it like an
			// operator would. The recovered store already reflects every
			// pre-crash eviction (watermark), so this evicts nothing new.
			if retain > 0 {
				w.SetRetention(retain)
			}
			// CloseHard tore the standing views down with the store;
			// re-register them against the recovered warehouse as a
			// reconnecting client would. Their backfill must reproduce
			// exactly the recovered history.
			for j := range views {
				v, err := w.RegisterView(views[j].aq, ops.UpdatePolicy{})
				if err != nil {
					return fmt.Sprintf("op %d %s: re-register view %d: %v", i, op, j, err)
				}
				views[j].v = v
			}
		}
		if w.Len() != len(m.events) {
			return fmt.Sprintf("after op %d %s: Len = %d, model = %d\n%s", i, op, w.Len(), len(m.events), dumpDivergence(w, m))
		}
		if int(w.Evicted())+evictedOffset != m.evicted {
			return fmt.Sprintf("after op %d %s: Evicted = %d+%d, model = %d", i, op, w.Evicted(), evictedOffset, m.evicted)
		}
		for vi, lv := range views {
			got, err := lv.v.Rows()
			if err != nil {
				return fmt.Sprintf("after op %d %s: view %d Rows: %v", i, op, vi, err)
			}
			if diff := diffAggRows(got, m.aggregate(lv.aq, modelNow())); diff != "" {
				live, _, aerr := w.Aggregate(context.Background(), lv.aq)
				liveDiff := "aggregate matches view"
				if aerr != nil {
					liveDiff = fmt.Sprintf("aggregate err %v", aerr)
				} else if d := diffAggRows(got, live); d != "" {
					liveDiff = "view vs aggregate: " + d
				}
				return fmt.Sprintf("after op %d %s: view %d {%s %s}: %s [%s]", i, op, vi, aggString(lv.aq), queryString(lv.aq.Query), diff, liveDiff)
			}
		}
	}
	return ""
}

// forceSpillFileNoInstall reproduces the first half of a background spill
// — snapshot a sealed in-memory segment and publish its segment file —
// without the swap or the WAL checkpoint, on the first shard that has a
// spillable segment. This is the precise "crash during an in-flight
// spill" window; the caller has already stopped the spill worker, so the
// write cannot race it. No-op when no shard holds a sealed segment (the
// crash then degenerates to a plain CrashReopen).
func forceSpillFileNoInstall(w *Warehouse) {
	for _, s := range w.shards {
		s.mu.Lock()
		var victim *segment
		for _, seg := range s.segs {
			if seg != s.hot && seg != s.ooo && seg.len() > 0 {
				victim = seg
				break
			}
		}
		if victim == nil {
			s.mu.Unlock()
			continue
		}
		events := s.spillSnapshotLocked(victim)
		gen := s.nextSegGen
		s.nextSegGen++
		dir := s.dir
		s.mu.Unlock()
		_, _ = persist.WriteSegment(filepath.Join(dir, persist.SegmentFileName(gen)), events)
		return
	}
}

func diffEvents(got, want []Event) string {
	if len(got) != len(want) {
		return fmt.Sprintf("select returned %d events, model %d\n  got:  %s\n  want: %s",
			len(got), len(want), eventsString(got), eventsString(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq {
			return fmt.Sprintf("select[%d].Seq = %d, model %d\n  got:  %s\n  want: %s",
				i, got[i].Seq, want[i].Seq, eventsString(got), eventsString(want))
		}
	}
	return ""
}

// eventsString renders a result list compactly for divergence reports.
func eventsString(evs []Event) string {
	var b strings.Builder
	for i, ev := range evs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s@%s", ev.Seq, ev.Tuple.Source, ev.Tuple.Time.Format("15:04:05"))
	}
	return b.String()
}

// shrinkOps minimizes a failing sequence by chunked delta removal: drop
// ever-smaller chunks while the failure persists.
func shrinkOps(ops []mop, fails func([]mop) bool) []mop {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			cand := make([]mop, 0, len(ops)-chunk)
			cand = append(cand, ops[:i]...)
			cand = append(cand, ops[i+chunk:]...)
			if fails(cand) {
				ops = cand
			} else {
				i += chunk
			}
		}
	}
	return ops
}

// TestModelCheck drives randomized op sequences across segment-boundary-
// heavy configurations; the segmented, sharded, index-accelerated store
// must be observationally identical to the naive model. Configurations
// with a DataDir sentinel run durably — spilling cold segments to a temp
// dir with a tiny hot budget, and crashing/reopening mid-sequence — and
// must still be indistinguishable.
func TestModelCheck(t *testing.T) {
	// The sentinel is replaced by a fresh temp dir per run inside runOps.
	const durableDir = "<tmp>"
	configs := []Config{
		{Shards: 1, SegmentEvents: 4, SegmentSpan: 10 * time.Minute},
		{Shards: 4, SegmentEvents: 8, SegmentSpan: 30 * time.Minute},
		{Shards: 2, SegmentEvents: 1, SegmentSpan: time.Minute},                // every event its own segment
		{Shards: 4, SegmentEvents: 1 << 20, SegmentSpan: 24 * 365 * time.Hour}, // never rotates
		// Durable: spill-heavy (everything beyond one sealed segment per
		// shard is on disk) and crash-prone. The tiny checkpoint cadence
		// makes the view publishers persist partials constantly, so the
		// post-crash re-registrations exercise checkpoint resume — both
		// accepted (fresh checkpoint) and rejected (an eviction bumped the
		// cut fingerprint) — not just cold backfill.
		{Shards: 2, SegmentEvents: 4, SegmentSpan: 10 * time.Minute, DataDir: durableDir,
			HotSegments: 1, ViewCheckpointEvery: 2},
		{Shards: 4, SegmentEvents: 8, SegmentSpan: 30 * time.Minute, DataDir: durableDir,
			HotSegments: 2, ViewCheckpointEvery: 4},
		// Durable, with an eager CompactBelow: the compactor rewrites cold
		// files about as fast as the spiller writes them, under every crash
		// op.
		{Shards: 2, SegmentEvents: 4, SegmentSpan: 10 * time.Minute, DataDir: durableDir,
			HotSegments: 1, CompactBelow: 6, ViewCheckpointEvery: 2},
	}
	// Each config runs today's spread of times and, with fewer seeds, the
	// tie-heavy distribution, where every event lies on one of three
	// instants.
	for _, dist := range []struct {
		name  string
		ties  bool
		seeds int
	}{{"", false, 25}, {"/ties", true, 12}} {
		for ci, cfg := range configs {
			name := fmt.Sprintf("shards=%d/segEvents=%d", cfg.Shards, cfg.SegmentEvents)
			if cfg.DataDir != "" {
				name += "/durable"
			}
			if cfg.CompactBelow != 0 {
				name += fmt.Sprintf("/compactBelow=%d", cfg.CompactBelow)
			}
			t.Run(name+dist.name, func(t *testing.T) {
				seedCount := dist.seeds
				if cfg.DataDir != "" && testing.Short() {
					seedCount = min(seedCount, 5) // durable runs pay real disk I/O
				}
				for seed := int64(0); seed < int64(seedCount); seed++ {
					ops := genOps(rand.New(rand.NewSource(seed+int64(ci)*1000)), 250, cfg.DataDir != "", dist.ties)
					diff := runOps(cfg, ops)
					if diff == "" {
						continue
					}
					minimal := shrinkOps(ops, func(cand []mop) bool { return runOps(cfg, cand) != "" })
					var steps []string
					for _, op := range minimal {
						steps = append(steps, op.String())
					}
					// Re-running the minimal sequence usually reproduces the
					// diff, but a timing-dependent failure may not; fall back
					// to the original diff rather than printing nothing.
					minDiff := runOps(cfg, minimal)
					if minDiff == "" {
						minDiff = "(not reproduced on re-run) original: " + diff
					}
					t.Fatalf("seed %d diverges: %s\nminimal reproduction (%d ops):\n  %s",
						seed, minDiff, len(minimal), strings.Join(steps, "\n  "))
				}
			})
		}
	}
}

// dumpDivergence maps every live seq in the impl to where it lives (which
// shard, which memory segment role or cold file) and diffs that seq set
// against the model's, plus the manifest's cut frontier — the first thing
// needed to localize a Len divergence.
func dumpDivergence(w *Warehouse, m *refModel) string {
	var b strings.Builder
	model := map[uint64]Event{}
	for _, ev := range m.events {
		model[ev.Seq] = ev
	}
	impl := map[uint64]string{}
	for si, s := range w.shards {
		s.mu.Lock()
		for _, seg := range s.segs {
			role := "sealed"
			if seg == s.hot {
				role = "hot"
			} else if seg == s.ooo {
				role = "ooo"
			}
			for _, ord := range seg.byTime {
				impl[seg.events[ord].Seq] = fmt.Sprintf("shard%d/mem-%s(len=%d)", si, role, seg.len())
			}
		}
		for _, cs := range s.cold {
			loc := fmt.Sprintf("shard%d/cold[%s count=%d skip=%d]", si, filepath.Base(cs.info.Path), cs.count, cs.skip)
			live, err := cs.live()
			if err != nil {
				b.WriteString(fmt.Sprintf("  LOAD ERR %s: %v\n", loc, err))
				continue
			}
			for _, ev := range live {
				impl[ev.Seq] = loc
			}
		}
		s.mu.Unlock()
	}
	var extra, missing []uint64
	for seq := range impl {
		if _, ok := model[seq]; !ok {
			extra = append(extra, seq)
		}
	}
	for seq := range model {
		if _, ok := impl[seq]; !ok {
			missing = append(missing, seq)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	b.WriteString(fmt.Sprintf("impl=%d model=%d extra=%d missing=%d\n", len(impl), len(model), len(extra), len(missing)))
	for _, seq := range extra {
		b.WriteString(fmt.Sprintf("  EXTRA seq=%d at %s\n", seq, impl[seq]))
	}
	for _, seq := range missing {
		ev := model[seq]
		b.WriteString(fmt.Sprintf("  MISSING seq=%d %s@%s\n", seq, ev.Tuple.Source, ev.Tuple.Time.Format("15:04:05")))
	}
	if w.pers != nil {
		for ci, c := range w.pers.manifest.Cuts {
			b.WriteString(fmt.Sprintf("  cut[%d] wm={%s seq=%d} marks=%v\n", ci,
				c.Watermark.Time.Format("15:04:05"), c.Watermark.Seq, c.Marks))
		}
	}
	return b.String()
}

func eventLess(a, b Event) bool { return persist.CompareEvents(a, b) < 0 }
