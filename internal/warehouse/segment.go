package warehouse

import (
	"sort"
	"sync/atomic"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// segment is one time-partitioned slice of a shard: a bounded run of events
// with its own time/space/theme/source indexes and a [minTime, maxTime]
// envelope. Shards rotate to a fresh segment once the active one reaches the
// configured event count or time span, so retention can drop whole cold
// segments and time-range queries can skip segments whose envelope misses
// the query window without touching any index.
type segment struct {
	events []Event

	// byTime: events sorted by event time (ordinals into events).
	byTime []int
	// spatial grid -> event ordinals.
	byCell map[geo.Cell][]int
	// theme -> event ordinals.
	byTheme map[string][]int
	// source -> event ordinals.
	bySource map[string][]int

	// minTime/maxTime bound the event times stored here (inclusive).
	minTime, maxTime time.Time

	// minSeq is the smallest warehouse sequence stored here; WAL
	// checkpointing deletes log files whose every record is below the
	// shard-wide minimum. maxSeq bounds the sequences from above (a trim
	// leaves it high), so a view's tail fold skips a segment it covers.
	minSeq, maxSeq uint64

	// chunks is a sealed segment's chunk index, the in-memory twin of a
	// cold file's sparse index: one entry per persist.IndexEvery run of
	// byTime, Pos a byTime ordinal, Stats persist's own chunk stats. The
	// first aggregate that scans the sealed segment builds it (chunkIndex)
	// and publishes it under the shard read lock, so two racing builders
	// only duplicate work; trimOldest clears it under the write lock. It
	// stays nil on an active segment, which appends still reorder.
	chunks atomic.Pointer[[]persist.SparseEntry]

	// spilling marks a sealed segment that sits in the background spill
	// queue (or is being written), so it is neither counted against the
	// hot-segment budget nor enqueued twice. Guarded by the shard lock.
	spilling bool
}

func newSegment() *segment {
	return &segment{
		byCell:   map[geo.Cell][]int{},
		byTheme:  map[string][]int{},
		bySource: map[string][]int{},
	}
}

func (g *segment) len() int { return len(g.events) }

// append stores one event and maintains the indexes and time envelope.
// Caller holds the shard write lock.
func (g *segment) append(ev Event) {
	t := ev.Tuple
	ord := len(g.events)
	g.events = append(g.events, ev)

	// Insert into the time index, keeping it sorted. Appends usually come
	// in near time order, so probe a few slots from the end; when the event
	// is far out of order (skewed producers sharing a shard), fall back to
	// binary search rather than scanning the whole index. Comparing times
	// keeps the index in (time, seq) order: a shard appends in seq order,
	// so the event's seq is above every seq here, and it goes after its
	// time-equals.
	pos := len(g.byTime)
	for probes := 0; pos > 0 && g.events[g.byTime[pos-1]].Tuple.Time.After(t.Time); probes++ {
		if probes == 8 {
			pos = sort.Search(pos, func(i int) bool {
				return g.events[g.byTime[i]].Tuple.Time.After(t.Time)
			})
			break
		}
		pos--
	}
	g.byTime = append(g.byTime, 0)
	copy(g.byTime[pos+1:], g.byTime[pos:])
	g.byTime[pos] = ord

	// The envelope is by time: the windows it prunes for bound time alone.
	if ord == 0 || t.Time.Before(g.minTime) {
		g.minTime = t.Time
	}
	if ord == 0 || t.Time.After(g.maxTime) {
		g.maxTime = t.Time
	}
	if ord == 0 || ev.Seq < g.minSeq {
		g.minSeq = ev.Seq
	}
	g.maxSeq = max(g.maxSeq, ev.Seq)
	g.index(t, ord)
}

// index adds the secondary-index entries for the event at ord.
func (g *segment) index(t *stt.Tuple, ord int) {
	cell := geo.CellOf(geo.Point{Lat: t.Lat, Lon: t.Lon}, gridCellDeg)
	g.byCell[cell] = append(g.byCell[cell], ord)
	if t.Theme != "" {
		g.byTheme[t.Theme] = append(g.byTheme[t.Theme], ord)
	}
	for _, theme := range t.Schema.Themes {
		if theme != t.Theme {
			g.byTheme[theme] = append(g.byTheme[theme], ord)
		}
	}
	if t.Source != "" {
		g.bySource[t.Source] = append(g.bySource[t.Source], ord)
	}
}

// chunkIndex returns the segment's chunk index, building and publishing it
// on first use. Caller holds the shard lock, read suffices, and has made
// sure the segment is sealed: no append may reorder byTime under the index.
func (g *segment) chunkIndex() []persist.SparseEntry {
	if idx := g.chunks.Load(); idx != nil {
		return *idx
	}
	idx := make([]persist.SparseEntry, 0, (len(g.byTime)+persist.IndexEvery-1)/persist.IndexEvery)
	buf := make([]Event, 0, persist.IndexEvery)
	for pos := 0; pos < len(g.byTime); pos += persist.IndexEvery {
		buf = buf[:0]
		for _, ord := range g.byTime[pos:min(pos+persist.IndexEvery, len(g.byTime))] {
			buf = append(buf, g.events[ord])
		}
		idx = append(idx, persist.SparseEntry{Pos: pos, Time: buf[0].Tuple.Time, Stats: persist.ChunkStatsFor(buf)})
	}
	g.chunks.Store(&idx)
	return idx
}

// prunedBy reports whether the [from, to) query window cannot intersect the
// segment's time envelope, so the whole segment can be skipped unscanned. A
// window bounds event time alone, so times decide it, ties included.
func (g *segment) prunedBy(from, to time.Time) bool {
	if !from.IsZero() && g.maxTime.Before(from) {
		return true
	}
	if !to.IsZero() && !g.minTime.Before(to) {
		return true
	}
	return false
}

// timeBounds returns the [lo, hi) slice of byTime falling inside the
// [from, to) window, by binary search. A search by time is exact: byTime is
// (time, seq)-ordered, so the events at or past a time bound are a suffix,
// and a window never splits an instant.
func (g *segment) timeBounds(from, to time.Time) (int, int) {
	lo, hi := 0, len(g.byTime)
	if !from.IsZero() {
		lo = sort.Search(len(g.byTime), func(i int) bool {
			return !g.events[g.byTime[i]].Tuple.Time.Before(from)
		})
	}
	if !to.IsZero() {
		hi = sort.Search(len(g.byTime), func(i int) bool {
			return !g.events[g.byTime[i]].Tuple.Time.Before(to)
		})
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// candidateSet picks the cheapest index for the query and returns candidate
// ordinals: every event when no index applies, none when an index proves
// the segment holds no match. ordered reports a stretch of the time index,
// already in (time, seq) order; the other indexes list ordinals in append
// order, a fresh slice the caller may sort. Caller holds the shard read lock.
func (g *segment) candidateSet(q Query) (ords []int, ordered bool) {
	best, indexed, ordered := g.byTime, false, true
	consider := func(ords []int, byTime bool) {
		if !indexed || len(ords) < len(best) {
			best, indexed, ordered = ords, true, byTime
		}
	}
	if len(q.Themes) > 0 {
		var merged []int
		for _, th := range q.Themes {
			merged = append(merged, g.byTheme[th]...)
		}
		sort.Ints(merged)
		merged = dedupeInts(merged)
		consider(merged, false)
	}
	if len(q.Sources) > 0 {
		var merged []int
		for _, src := range q.Sources {
			merged = append(merged, g.bySource[src]...)
		}
		sort.Ints(merged)
		merged = dedupeInts(merged)
		consider(merged, false)
	}
	if q.Region != nil {
		minCell := geo.CellOf(q.Region.Min, gridCellDeg)
		maxCell := geo.CellOf(q.Region.Max, gridCellDeg)
		nCells := (maxCell.X - minCell.X + 1) * (maxCell.Y - minCell.Y + 1)
		// Only use the grid when the region is small enough to enumerate.
		if nCells > 0 && nCells <= 10000 {
			var merged []int
			for x := minCell.X; x <= maxCell.X; x++ {
				for y := minCell.Y; y <= maxCell.Y; y++ {
					merged = append(merged, g.byCell[geo.Cell{X: x, Y: y}]...)
				}
			}
			sort.Ints(merged)
			consider(merged, false)
		}
	}
	if !q.From.IsZero() || !q.To.IsZero() {
		lo, hi := g.timeBounds(q.From, q.To)
		consider(g.byTime[lo:hi], true)
	}
	return best, ordered
}

// trimOldest evicts the n oldest events (by the time index) and rebuilds
// this segment's indexes; n must be in (0, len). It returns the dropped
// events so the shard can settle its per-source counts. Only the one
// boundary segment of a compaction pays this rebuild — whole cold segments
// are dropped without it. Caller holds the shard write lock.
func (g *segment) trimOldest(n int) []Event {
	dropped := make([]Event, 0, n)
	for _, ord := range g.byTime[:n] {
		dropped = append(dropped, g.events[ord])
	}
	survivors := make([]Event, 0, len(g.byTime)-n)
	for _, ord := range g.byTime[n:] {
		survivors = append(survivors, g.events[ord])
	}
	g.events = survivors
	g.chunks.Store(nil)
	g.byTime = g.byTime[:0]
	g.byCell = map[geo.Cell][]int{}
	g.byTheme = map[string][]int{}
	g.bySource = map[string][]int{}
	for i, ev := range survivors {
		g.byTime = append(g.byTime, i) // survivors come out time-sorted
		g.index(ev.Tuple, i)
		if i == 0 || ev.Seq < g.minSeq {
			g.minSeq = ev.Seq
		}
	}
	g.minTime = survivors[0].Tuple.Time
	g.maxTime = survivors[len(survivors)-1].Tuple.Time
	return dropped
}

func dedupeInts(s []int) []int {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
