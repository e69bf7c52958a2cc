package warehouse

import (
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// coldSegment is a sealed segment spilled to disk. Only its envelope —
// time/seq bounds, per-source and per-theme counts, and the sparse time
// index inside persist.SegmentInfo — stays in RAM; event payloads are read
// back from the file on the rare query that survives envelope pruning.
//
// The file and the unit are immutable: nothing writes a coldSegment after
// its constructor but the compactor's compacting flag. Retention removes a
// cold segment whole (one O(1) file delete) or, for one straddling the cut,
// swaps in a new unit over the same file with a logical skip of its oldest
// events (trimmed); the skipped prefix stays on disk and is re-derived from
// the manifest watermark after a crash.
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

// newColdSegment wraps a freshly written or reopened segment file whose
// highest seq is seqHi. The info's count maps are adopted (not copied): the
// coldSegment is their sole owner from here on.
func (w *Warehouse) newColdSegment(info *persist.SegmentInfo, seqHi uint64) *coldSegment {
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
		seqHi:         seqHi,
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

// live reads the file's live events ([skip:] of the file) in (time, seq)
// order: the per-event keys and rows a retention cut's boundary file needs,
// or a compaction victim's survivors. The read deliberately bypasses the
// chunk cache (nil): the file is usually trimmed or deleted moments later,
// and inserting its chunks would only evict ones serving live queries.
func (c *coldSegment) live() ([]Event, error) {
	evs, _, err := c.info.ReadRangeProjected(nil, c.skip, c.info.Count, persist.FullProjection)
	return evs, err
}

// trimmed returns the unit left once the n oldest live events leave, given
// live, the file's live events (n < count): a new coldSegment over the same
// file and sparse index, its skip moved past them, with the survivors' own
// head and counts. The file is not rewritten: the skip is logical,
// re-derivable from the watermark. The new unit starts with compacting
// clear: a compaction picked on this one abandons on it.
func (c *coldSegment) trimmed(live []Event, n int) *coldSegment {
	t := &coldSegment{info: c.info, cache: c.cache, readHist: c.readHist,
		skip: c.skip + n, count: c.count - n, head: eventKey(live[n]), tail: c.tail, seqHi: c.seqHi}
	t.sourceCounts, t.themeCounts, t.primaryThemes = survivorCounts(c.sourceCounts, c.themeCounts, c.primaryThemes, n,
		func(i int) *stt.Tuple { return live[i].Tuple })
	return t
}

// eventKey is the event's position in the global eviction order.
func eventKey(ev Event) persist.Key {
	return persist.Key{Time: ev.Tuple.Time, Seq: ev.Seq}
}

// keyLE reports a <= b in eviction order (the order is total).
func keyLE(a, b persist.Key) bool { return !b.Less(a) }
