package warehouse

import (
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/persist"
)

// coldSegment is a sealed segment spilled to disk. Only its envelope —
// time/seq bounds, per-source and per-theme counts, and the sparse time
// index inside persist.SegmentInfo — stays in RAM; event payloads are read
// back from the file on the rare query that survives envelope pruning.
//
// The file itself is immutable. Retention removes cold segments whole
// (one O(1) file delete) or, for the one segment straddling a compaction
// cutoff, records a logical skip of its oldest events; the skipped prefix
// stays on disk and is re-derived from the manifest watermark after a
// crash.
type coldSegment struct {
	info *persist.SegmentInfo
	// cache is the warehouse-wide LRU of decoded chunks reads go through;
	// nil when the cold-read cache is disabled.
	cache *persist.ChunkCache
	// readHist times chunk-range reads off this file (nil = no-op).
	readHist *obs.Histogram

	// skip is how many leading events (in the file's (time, seq) order)
	// retention has logically evicted.
	skip int
	// count is the live event count: info.Count - skip.
	count int
	// head/tail are the live envelope keys (head moves up as skip grows).
	head, tail persist.Key
	// sourceCounts/themeCounts are live counts, kept exact across skips.
	sourceCounts map[string]int
	themeCounts  map[string]int
	// primaryThemes counts live events by primary Theme tag only; nil when
	// the file predates the header field, which disables the group-by-theme
	// aggregate fast path for this one segment (reads still work).
	primaryThemes map[string]int

	// loaded caches the live events ([skip:] of the file) while a
	// compaction needs per-event keys; it is released when the compaction
	// is done with it.
	loaded []Event

	// compacting marks the segment as a victim of an in-flight background
	// file compaction, so overlapping picks don't merge it twice. Queries
	// ignore the flag: the file stays live until the swap.
	compacting bool

	// seqHi is the highest warehouse seq stored in the file (retention-
	// skipped prefix included — seqs never resurrect, so the over-estimate
	// only costs a spurious read). View-checkpoint resumes skip files whose
	// seqHi a checkpoint already covers.
	seqHi uint64
}

// newColdSegment wraps a freshly written or reopened segment file. The
// info's count maps are adopted (not copied): the coldSegment is their
// sole owner from here on.
func (w *Warehouse) newColdSegment(info *persist.SegmentInfo) *coldSegment {
	return &coldSegment{
		info:          info,
		cache:         w.coldCache,
		readHist:      w.met.coldRead,
		count:         info.Count,
		head:          info.Head,
		tail:          info.Tail,
		sourceCounts:  info.SourceCounts,
		themeCounts:   info.ThemeCounts,
		primaryThemes: info.PrimaryThemeCounts,
	}
}

// prunedBy mirrors segment.prunedBy on the live envelope; the window bounds
// time alone, so the envelope keys' times decide.
func (c *coldSegment) prunedBy(from, to time.Time) bool {
	if !from.IsZero() && c.tail.Time.Before(from) {
		return true
	}
	if !to.IsZero() && !c.head.Time.Before(to) {
		return true
	}
	return false
}

// coveredBy reports whether every live event falls inside [from, to), so
// time-only counts can use c.count without opening the file. As in prunedBy,
// times decide.
func (c *coldSegment) coveredBy(from, to time.Time) bool {
	if !from.IsZero() && c.head.Time.Before(from) {
		return false
	}
	if !to.IsZero() && !c.tail.Time.Before(to) {
		return false
	}
	return true
}

// window returns the live event ordinals [lo, hi) whose chunks can hold
// events in the [from, to) window: the sparse index's conservative range,
// minus the retention-skipped prefix.
func (c *coldSegment) window(from, to time.Time) (int, int) {
	lo, hi := c.info.WindowPositions(from, to)
	return max(lo, c.skip), hi
}

// ensureLoaded materializes every live event, for compactions that need
// per-event keys. Release with unload once done. The read deliberately
// bypasses the chunk cache (nil): the result is pinned in c.loaded for the
// compaction's lifetime, and the segment is usually trimmed or deleted
// moments later — inserting its chunks would only evict ones serving live
// queries.
func (c *coldSegment) ensureLoaded() error {
	if c.loaded != nil {
		return nil
	}
	evs, _, err := c.info.ReadRangeProjected(nil, c.skip, c.info.Count, persist.FullProjection)
	if err != nil {
		return err
	}
	c.loaded = evs
	return nil
}

func (c *coldSegment) unload() { c.loaded = nil }

// keyAt returns the i-th live event's eviction key. The first and last
// keys come from the envelope; interior keys force a load and return ok
// false if the file cannot be read.
func (c *coldSegment) keyAt(i int) (persist.Key, bool) {
	switch {
	case i == 0:
		return c.head, true
	case i == c.count-1:
		return c.tail, true
	}
	if err := c.ensureLoaded(); err != nil {
		return persist.Key{}, false
	}
	return eventKey(c.loaded[i]), true
}

// dropPrefix applies a compaction verdict: the n oldest live events leave.
// Caller has ensured the segment is loaded (n < count). The file is not
// rewritten — the skip is logical, re-derivable from the watermark.
func (c *coldSegment) dropPrefix(n int) (dropped []Event) {
	dropped = c.loaded[:n]
	for _, ev := range dropped {
		t := ev.Tuple
		if t.Source != "" {
			if c.sourceCounts[t.Source]--; c.sourceCounts[t.Source] <= 0 {
				delete(c.sourceCounts, t.Source)
			}
		}
		if t.Theme != "" {
			if c.themeCounts[t.Theme]--; c.themeCounts[t.Theme] <= 0 {
				delete(c.themeCounts, t.Theme)
			}
			if c.primaryThemes != nil {
				if c.primaryThemes[t.Theme]--; c.primaryThemes[t.Theme] <= 0 {
					delete(c.primaryThemes, t.Theme)
				}
			}
		}
		for _, theme := range t.Schema.Themes {
			if theme != t.Theme {
				if c.themeCounts[theme]--; c.themeCounts[theme] <= 0 {
					delete(c.themeCounts, theme)
				}
			}
		}
	}
	c.skip += n
	c.count -= n
	c.head = eventKey(c.loaded[n])
	c.loaded = c.loaded[n:]
	return dropped
}

// eventKey is the event's position in the global eviction order.
func eventKey(ev Event) persist.Key {
	return persist.Key{Time: ev.Tuple.Time, Seq: ev.Seq}
}

// keyLE reports a <= b in eviction order (the order is total).
func keyLE(a, b persist.Key) bool { return !b.Less(a) }
