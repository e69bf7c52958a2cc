package warehouse

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"streamloader/internal/expr"
	"streamloader/internal/geo"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// segLimits bound the active segments of a shard: a segment rotates once it
// holds maxEvents events or its time envelope covers maxSpan.
type segLimits struct {
	maxEvents int
	maxSpan   time.Duration
}

// shard is one lock partition of the warehouse. Events are routed to shards
// by source hash, so a sensor's stream stays entirely shard-local and
// producers of distinct sources never contend. Inside the shard, events live
// in time-partitioned segments: an in-order "hot" segment absorbs the
// advancing stream and rotates on the segLimits bounds, while stragglers
// older than the sealed history go to a side "ooo" segment so they never
// stretch a sealed envelope.
type shard struct {
	mu  sync.RWMutex
	lim segLimits

	// segs holds every segment, sealed and active, in creation order.
	segs []*segment
	// hot is the active in-order segment (nil until the next append).
	hot *segment
	// ooo is the active out-of-order side segment for stragglers.
	ooo *segment
	// sealBound is the highest event time covered by sealed in-order
	// segments; events older than it are stragglers and go to ooo.
	sealBound time.Time

	// count is the live event total across segments, cold included.
	count int
	// seqNext is one past the highest warehouse seq ever appended to (or
	// recovered into) this shard, 0 while it has none. It is an exclusive
	// commit cut: seqs are reserved under this lock and committed before it
	// is released, so every seq below seqNext that routes here has
	// committed. A view scan or checkpoint records it, and the handoff folds
	// only the events at or above it (View.install). Exclusive because seq 0
	// is a real seq: an inclusive "highest seq" cut would read the same for
	// an empty shard and for one holding seq 0.
	seqNext uint64
	// sources tracks live events per source, so Stats can count distinct
	// sources without unioning per-segment counts.
	sources map[string]int

	// Durable-mode state; wal is nil for a pure in-memory warehouse.
	// wal logs every append before it becomes visible; cold holds the
	// segments spilled to disk (oldest first); dir is the shard's data
	// directory; nextSegGen numbers the next spill file; hotSegments
	// bounds the sealed in-memory segments before spill kicks in.
	wal         *persist.WAL
	cold        []*coldSegment
	dir         string
	nextSegGen  int
	hotSegments int
	// walFiles carries the surviving WAL files from recovery to OpenWAL;
	// cleared once the WAL takes ownership.
	walFiles []persist.WALFileInfo

	// idx is this shard's position in Warehouse.shards, so tap consumers
	// can address their per-shard state without a map lookup.
	idx int
	// taps are the post-commit consumers (see tap.go), fired in attachment
	// order under the write lock after WAL write + visibility.
	taps []tapConsumer
	// oneScratch backs the one-event slice Append hands the WAL and the taps,
	// so the single-event hot path allocates nothing for either. Cleared
	// after each append so it never retains a tuple.
	oneScratch [1]Event
}

// condCache caches per-schema compilations of a query's Cond across the
// events one scan (or one view tap) filters.
type condCache = map[*stt.Schema]*expr.Compiled

func newShard(lim segLimits) *shard {
	return &shard{lim: lim, sources: map[string]int{}}
}

// ErrCondEval tags a payload-condition runtime evaluation failure: the
// query's Cond, not the store, is at fault, so HTTP callers can answer it
// as a client error rather than a server one.
var ErrCondEval = errors.New("warehouse: condition evaluation failed")

// appendLocked stores one event, routing it to the hot or out-of-order
// segment and rotating the target when it fills. Caller holds the write
// lock.
func (s *shard) appendLocked(ev Event) {
	t := ev.Tuple
	// The seal bound is a time: it keeps fresh hot segments' time envelopes
	// off sealed history. The segment an event joins does not change where
	// its key sorts, so time is enough to pick it.
	straggler := !s.sealBound.IsZero() && t.Time.Before(s.sealBound)
	seg := s.hot
	if straggler {
		seg = s.ooo
	}
	if seg == nil {
		seg = newSegment()
		s.segs = append(s.segs, seg)
		if straggler {
			s.ooo = seg
		} else {
			s.hot = seg
		}
	}
	seg.append(ev)
	s.count++
	if ev.Seq >= s.seqNext {
		s.seqNext = ev.Seq + 1
	}
	if t.Source != "" {
		s.sources[t.Source]++
	}
	if seg.rows() >= s.lim.maxEvents || seg.maxTime.Sub(seg.minTime) >= s.lim.maxSpan {
		s.sealLocked(seg)
	}
}

// sealLocked retires an active segment; the next append in its role starts a
// fresh one. Sealing the hot segment advances the straggler boundary.
func (s *shard) sealLocked(seg *segment) {
	switch seg {
	case s.hot:
		s.hot = nil
		if seg.maxTime.After(s.sealBound) {
			s.sealBound = seg.maxTime
		}
	case s.ooo:
		s.ooo = nil
	}
}

// applyDropsLocked executes a retention cut's verdict on the shard: each
// cursor's first pos events leave its unit. A unit consumed in full is
// dropped whole (an unlink, or one file delete); a boundary unit is
// replaced by its trimmed successor, which shares its rows or its file. The
// unit lists are replaced, not edited, and hot and ooo follow their
// successors, so a reader holding the old lists reads the pre-cut shard. It
// returns how many units were dropped whole and how many trimmed. Caller
// holds the write lock; w takes the disk-byte accounting.
func (s *shard) applyDropsLocked(w *Warehouse, cursors []*segCursor) (wholeDrops, trims int) {
	nextSeg := map[*segment]*segment{}
	nextCold := map[*coldSegment]*coldSegment{}
	for _, c := range cursors {
		switch {
		case c.mem != nil:
			seg := c.mem
			var t *segment
			var kept map[string]int
			if c.pos < seg.len() {
				t = seg.trimmed(c.pos, seg == s.hot || seg == s.ooo)
				kept = t.sources
				trims++
			} else {
				wholeDrops++
			}
			nextSeg[seg] = t
			s.dropSourceCountsLocked(seg.sources, kept)
			switch seg {
			case s.hot:
				s.hot = t
			case s.ooo:
				s.ooo = t
			}
		case c.pos < c.cold.count:
			t := c.cold.trimmed(c.loaded, c.pos)
			nextCold[c.cold] = t
			s.dropSourceCountsLocked(c.cold.sourceCounts, t.sourceCounts)
			trims++
		default:
			cs := c.cold
			nextCold[cs] = nil
			s.dropSourceCountsLocked(cs.sourceCounts, nil)
			w.coldBytes.Add(-cs.info.Bytes)
			_ = cs.info.Remove() // a failed delete is re-reaped at next Open
			cs.cache.Invalidate(cs.info.Path)
			wholeDrops++
		}
		s.count -= c.pos
	}
	s.segs = replaceUnits(s.segs, nextSeg)
	s.cold = replaceUnits(s.cold, nextCold)
	return wholeDrops, trims
}

// replaceUnits returns a new unit list: list with each unit that next names
// replaced by its successor there, or left out where that is nil.
func replaceUnits[U comparable](list []U, next map[U]U) []U {
	if len(next) == 0 {
		return list
	}
	var zero U
	out := make([]U, 0, len(list))
	for _, u := range list {
		if n, ok := next[u]; !ok {
			out = append(out, u)
		} else if n != zero {
			out = append(out, n)
		}
	}
	return out
}

// dropSourceCountsLocked settles the per-source counts for events leaving a
// segment or cold file: counts are its source counts, kept those of what
// remains of it (nil when it leaves whole).
func (s *shard) dropSourceCountsLocked(counts, kept map[string]int) {
	for src, n := range counts {
		if s.sources[src] -= n - kept[src]; s.sources[src] <= 0 {
			delete(s.sources, src)
		}
	}
}

// minLiveSeqLocked is the smallest warehouse seq still held in memory by
// this shard; every WAL record below it is durable elsewhere (spilled or
// evicted), so log files wholly below it can be checkpointed away.
func (s *shard) minLiveSeqLocked() uint64 {
	min := ^uint64(0)
	for _, seg := range s.segs {
		if seg.len() > 0 && seg.minSeq < min {
			min = seg.minSeq
		}
	}
	return min
}

// maybeSpillLocked hands the oldest sealed in-memory segments to the
// background spiller until the segments not yet queued are back under the
// hot-segment budget. The file writes happen on the spill worker, outside
// this lock; until each swap lands the segment stays readable in memory.
// Caller holds the write lock.
func (s *shard) maybeSpillLocked(w *Warehouse) {
	if s.wal == nil || s.hotSegments <= 0 || w.spill == nil {
		return
	}
	resident := 0
	for _, seg := range s.segs {
		if seg != s.hot && seg != s.ooo && seg.len() > 0 && !seg.spilling {
			resident++
		}
	}
	for _, seg := range s.segs {
		if resident <= s.hotSegments {
			return
		}
		if seg == s.hot || seg == s.ooo || seg.len() == 0 || seg.spilling {
			continue
		}
		seg.spilling = true
		w.spill.enqueue(spillReq{s: s, seg: seg})
		resident--
	}
}

// spillSnapshotLocked copies a segment's events in the canonical on-disk
// (time, seq) order. Caller holds the write lock; the copy holds only
// tuple references, so the expensive encode happens off-lock.
func (s *shard) spillSnapshotLocked(seg *segment) []Event {
	events := make([]Event, 0, seg.len())
	for _, ord := range seg.byTime {
		events = append(events, seg.events[ord])
	}
	// byTime is time-sorted with ties in insertion order; the file wants
	// ties by seq.
	persist.SortEvents(events)
	return events
}

// matchEvent applies every query constraint to one event; conds caches the
// per-schema compilation of q.Cond across segments. The window bounds event
// time alone.
func matchEvent(ev Event, q *Query, conds condCache) (bool, error) {
	t := ev.Tuple
	if !q.From.IsZero() && t.Time.Before(q.From) {
		return false, nil
	}
	if !q.To.IsZero() && !t.Time.Before(q.To) {
		return false, nil
	}
	if q.Region != nil && !q.Region.Contains(geo.Point{Lat: t.Lat, Lon: t.Lon}) {
		return false, nil
	}
	if len(q.Themes) > 0 && !matchTheme(t, q.Themes) {
		return false, nil
	}
	if len(q.Sources) > 0 && !containsString(q.Sources, t.Source) {
		return false, nil
	}
	if q.Cond != "" {
		c, ok := conds[t.Schema]
		if !ok {
			compiled, err := expr.CompileBool(q.Cond, expr.Env{Schema: t.Schema})
			if err != nil {
				// The condition does not type-check against this event's
				// schema: it cannot match events of this shape.
				conds[t.Schema] = nil
				return false, nil
			}
			c = compiled
			conds[t.Schema] = c
		}
		if c == nil {
			return false, nil
		}
		ok2, err := c.EvalBool(expr.Scope{Tuple: t})
		if err != nil {
			return false, fmt.Errorf("%w: %q: %v", ErrCondEval, q.Cond, err)
		}
		if !ok2 {
			return false, nil
		}
	}
	return true, nil
}

// stats folds this shard's contribution into st under the shard's own
// read lock; st itself is only touched by the single calling goroutine.
func (s *shard) stats(st *Stats) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st.Events += s.count
	st.Sources += len(s.sources) // sources are shard-local, so sums are exact
	st.Segments += len(s.segs) + len(s.cold)
	st.SegmentsCold += len(s.cold)
	// Earliest and Latest report event times, so time picks them.
	for _, seg := range s.segs {
		for theme, n := range seg.themes {
			st.Themes[theme] += n
		}
		if st.Earliest.IsZero() || seg.minTime.Before(st.Earliest) {
			st.Earliest = seg.minTime
		}
		if st.Latest.IsZero() || seg.maxTime.After(st.Latest) {
			st.Latest = seg.maxTime
		}
	}
	for _, cs := range s.cold {
		for theme, cnt := range cs.themeCounts {
			st.Themes[theme] += cnt
		}
		if st.Earliest.IsZero() || cs.head.Time.Before(st.Earliest) {
			st.Earliest = cs.head.Time
		}
		if st.Latest.IsZero() || cs.tail.Time.After(st.Latest) {
			st.Latest = cs.tail.Time
		}
	}
	if s.wal != nil {
		st.WALBytes += s.wal.Bytes()
	}
}

func matchTheme(t *stt.Tuple, themes []string) bool {
	for _, want := range themes {
		if t.Theme == want || t.Schema.HasTheme(want) {
			return true
		}
	}
	return false
}

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
