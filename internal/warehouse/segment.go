package warehouse

import (
	"maps"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// segment is one time-partitioned slice of a shard: a bounded run of events
// with its own time index, per-source and per-theme counts and a [minTime,
// maxTime] envelope. Shards rotate to a fresh segment once the active one
// reaches the configured event count or time span, so retention can drop
// whole cold segments and time-range queries can skip segments whose
// envelope misses the query window without touching the index.
//
// Only the active segments (a shard's hot and ooo) change by append. A
// sealed segment is never written after it seals, bar its spilling flag and
// its chunk index: a retention trim builds a new unit (trimmed) that the
// shard swaps into a new list, so a reader holding the old one reads it
// unchanged.
type segment struct {
	// events holds the rows, in append order. After a trim it also holds
	// the trimmed prefix's rows, which no ordinal in byTime names.
	events []Event

	// byTime: the live events sorted by event time (ordinals into events).
	byTime []int
	// sources and themes count the events here as a cold file's header
	// does: sources by non-empty source, themes by every theme matchTheme
	// matches an event on (primary tag plus schema themes). A query skips
	// the segment when they name none of its sources or themes.
	sources, themes map[string]int

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
	// only duplicate work; a trimmed unit starts without one. It stays nil
	// on an active segment, which appends still reorder.
	chunks atomic.Pointer[[]persist.SparseEntry]

	// spilling marks a sealed segment that sits in the background spill
	// queue (or is being written), so it is neither counted against the
	// hot-segment budget nor enqueued twice. Guarded by the shard lock.
	spilling bool
}

func newSegment() *segment {
	return &segment{sources: map[string]int{}, themes: map[string]int{}}
}

// len is the live event count.
func (g *segment) len() int { return len(g.byTime) }

// rows is the count of rows the segment holds, live or trimmed: what an
// active segment rotates on, so trims cannot keep one growing.
func (g *segment) rows() int { return len(g.events) }

// append stores one event and maintains the time index, the counts and the
// time envelope. Caller holds the shard write lock.
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
	g.count(t)
}

// count adds one event to the source and theme counts.
func (g *segment) count(t *stt.Tuple) {
	if t.Source != "" {
		g.sources[t.Source]++
	}
	if t.Theme != "" {
		g.themes[t.Theme]++
	}
	for _, theme := range t.Schema.Themes {
		if theme != t.Theme {
			g.themes[theme]++
		}
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

// countsExclude reports whether a segment or cold file whose source and
// theme counts are these holds no match for q's source or theme filter:
// the filter names some, and none of them is counted. An empty name is
// never counted, so a filter naming one proves nothing.
func countsExclude(q *Query, sources, themes map[string]int) bool {
	return namesNone(q.Sources, sources) || namesNone(q.Themes, themes)
}

func namesNone(names []string, counts map[string]int) bool {
	for _, name := range names {
		if name == "" || counts[name] > 0 {
			return false
		}
	}
	return len(names) > 0
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

// trimmed returns the unit left once the n oldest live events leave, n in
// (0, len): a new segment over the same rows, holding the suffix byTime[n:]
// of the time index, with the survivors' own envelope and counts. The rows
// the prefix names stay allocated until the whole unit goes. A sealed
// segment shares its suffix; an active one, whose appends shift byTime in
// place, gets its own copy. The new unit starts without a chunk index, and
// with spilling clear: a spill request for this one abandons on it. Caller
// holds the shard write lock.
func (g *segment) trimmed(n int, active bool) *segment {
	byTime := g.byTime[n:]
	if active {
		byTime = slices.Clone(byTime)
	}
	t := &segment{events: g.events, byTime: byTime, maxTime: g.maxTime, maxSeq: g.maxSeq}
	t.minTime = g.events[byTime[0]].Tuple.Time
	t.minSeq = g.events[byTime[0]].Seq
	for _, ord := range byTime[1:] {
		t.minSeq = min(t.minSeq, g.events[ord].Seq)
	}
	t.sources, t.themes, _ = survivorCounts(g.sources, g.themes, nil, n, func(i int) *stt.Tuple {
		return g.events[g.byTime[i]].Tuple
	})
	return t
}

// survivorCounts returns a unit's counts less those of its n oldest live
// events, at(0) to at(n-1): copies of the source and theme counts, and of
// the primary-theme counts when the unit keeps them (nil stays nil), each
// decremented as segment.count and a cold file's header count. The copies
// belong to the trimmed unit; the unit it replaces keeps its own maps.
func survivorCounts(sources, themes, primary map[string]int, n int, at func(int) *stt.Tuple) (map[string]int, map[string]int, map[string]int) {
	sources, themes, primary = maps.Clone(sources), maps.Clone(themes), maps.Clone(primary)
	uncount := func(counts map[string]int, name string) {
		if counts[name]--; counts[name] <= 0 {
			delete(counts, name)
		}
	}
	for i := 0; i < n; i++ {
		t := at(i)
		if t.Source != "" {
			uncount(sources, t.Source)
		}
		if t.Theme != "" {
			uncount(themes, t.Theme)
			if primary != nil {
				uncount(primary, t.Theme)
			}
		}
		for _, theme := range t.Schema.Themes {
			if theme != t.Theme {
				uncount(themes, theme)
			}
		}
	}
	return sources, themes, primary
}
