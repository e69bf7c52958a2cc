package warehouse

import (
	"sort"
	"time"

	"streamloader/internal/partial"
	"streamloader/internal/persist"
)

// Retention-cut maintenance for standing views. compactAll calls
// trimViews with every shard lock held, after the cut is persisted and
// before the drops are applied, so the evicted events are still readable
// from the in-memory segments and the boundary cold files their cursors
// loaded.
//
// The eviction prefix property does the heavy lifting: every evicted
// event's (time, seq) key is ≤ the cut, so for a bucketed view every
// frame starting strictly below the cut's bucket B* contains only evicted
// events and falls off whole — an O(frames) map delete, no arithmetic, no
// rescan, correct for every aggregate function including MIN/MAX. Only
// the single boundary frame (start == B*) is partially evicted and needs
// patching:
//
//   - COUNT/SUM/AVG subtract the evicted boundary events' exact
//     contribution (partial.Store.Sub), because the state carries count
//     and sum separately and both are linear.
//   - MIN/MAX cannot un-observe an extremum, so the boundary frame is
//     queued for a one-bucket rescan (View.rescanFrameLocked) — still
//     never a history rescan.
//   - A cold file dropped whole by its envelope alone was never read
//     back; if its tail reaches into the boundary frame, the evicted
//     contribution there is unknown and the boundary falls back to the
//     rescan queue too.
//
// An unbucketed view has one frame, so nothing drops whole: COUNT/SUM/AVG
// still subtract exactly when every evicted event is in memory, MIN/MAX
// (or an unloaded cold drop) degrade to the full-rebuild dirty flag — the
// only remaining case that rescans history.

// trimViews patches every registered view for one eviction. Caller holds
// retMu and every shard lock; the evicted events (cursor prefixes) must
// still be readable. The registry lock is only held to snapshot the view
// list — the per-view work runs after its release, so the lock-order
// contract (nothing heavy under viewRegistry.mu) stands. A view released
// concurrently is patched harmlessly: its state is discarded either way.
func (w *Warehouse) trimViews(cut persist.Key, anyDead bool, cursors []*segCursor) {
	reg := &w.views
	reg.mu.Lock()
	if len(reg.m) == 0 {
		reg.mu.Unlock()
		return
	}
	views := make([]*View, 0, len(reg.m))
	for _, v := range reg.m {
		views = append(views, v)
	}
	reg.mu.Unlock()

	shardIdx := make(map[*shard]int, len(w.shards))
	for i, s := range w.shards {
		shardIdx[s] = i
	}
	for _, v := range views {
		v.applyTrim(cut, anyDead, cursors, shardIdx)
	}
}

// applyTrim patches one view for one eviction; see the file comment for
// the case analysis. Runs with every shard lock held.
func (v *View) applyTrim(cut persist.Key, anyDead bool, cursors []*segCursor, shardIdx map[*shard]int) {
	if anyDead {
		// An unreadable cold file kept an unknown subset of its events; the
		// eviction set is not exactly the cursor prefixes, so nothing short
		// of a rebuild is sound.
		v.dirty.Store(true)
		v.wake()
		return
	}
	width := v.plan.Bucket
	if width <= 0 {
		v.applyTrimFlat(cursors, shardIdx)
		return
	}
	bstar := cut.Time.Truncate(width)

	// Frames strictly below the boundary bucket hold only evicted events
	// (prefix property); drop them whole.
	keep := func(start time.Time) bool { return !start.Before(bstar) }
	for _, p := range v.parts {
		p.mu.Lock()
		v.w.viewFrameDrops.Add(uint64(p.store.DropFrames(keep)))
		p.mu.Unlock()
	}

	// Collect the evicted events that land in the boundary frame, per
	// shard. A bucket is a span of time, so an event's time alone places
	// it, and each cursor's dropped prefix is (time, seq)-ordered, so a
	// search by time finds its boundary events as a suffix. A cursor
	// whose last dropped event sits below the boundary bucket is skipped
	// in O(1) — the common case, since most of the drop is whole frames —
	// and the cursors straddling the boundary binary-search their first
	// boundary event instead of scanning the prefix. That keeps this pass
	// O(cursors·log) + O(boundary events), not O(everything evicted). A
	// cold segment consumed whole by its envelope was never loaded; if it
	// reaches into the boundary frame its contribution there is unknown.
	boundary := make([][]Event, len(v.parts))
	unknown := false
	for _, c := range cursors {
		if c.pos == 0 {
			continue
		}
		i := shardIdx[c.sh]
		switch {
		case c.mem != nil:
			if c.mem.events[c.mem.byTime[c.pos-1]].Tuple.Time.Before(bstar) {
				continue
			}
			j0 := sort.Search(c.pos, func(j int) bool {
				return !c.mem.events[c.mem.byTime[j]].Tuple.Time.Before(bstar)
			})
			for j := j0; j < c.pos; j++ {
				boundary[i] = append(boundary[i], c.mem.events[c.mem.byTime[j]])
			}
		case c.loaded != nil:
			if c.loaded[c.pos-1].Tuple.Time.Before(bstar) {
				continue
			}
			j0 := sort.Search(c.pos, func(j int) bool {
				return !c.loaded[j].Tuple.Time.Before(bstar)
			})
			boundary[i] = append(boundary[i], c.loaded[j0:c.pos]...)
		default:
			if !c.cold.tail.Time.Before(bstar) {
				unknown = true
			}
		}
	}
	hasBoundary := unknown
	for _, evs := range boundary {
		if len(evs) > 0 {
			hasBoundary = true
			break
		}
	}
	switch {
	case !hasBoundary:
		// The cut fell exactly on frame edges: the whole eviction was
		// frame drops, even for MIN/MAX.
	case v.plan.Func.Subtractable() && !unknown:
		if !v.subtractBoundary(boundary) {
			return // failed terminally or fell back to dirty; both woke
		}
	default:
		v.queueRescan(bstar)
	}
	v.mutations.Add(1)
	v.wake()
}

// subtractBoundary folds the evicted boundary events through the view's
// own filter and subtracts their exact contribution from each shard's
// store. Returns false after arranging recovery (terminal error or dirty
// fallback) itself.
func (v *View) subtractBoundary(boundary [][]Event) bool {
	for i, evs := range boundary {
		if len(evs) == 0 {
			continue
		}
		deltas := map[partial.Key]*partial.State{}
		fold := aggVisitor{p: &v.plan, flat: deltas}
		conds := condCache{}
		for _, ev := range evs {
			m, err := matchEvent(ev, &v.plan.Query, conds)
			if err != nil {
				v.fail(err)
				return false
			}
			if !m {
				continue
			}
			if fold.event(ev) != nil {
				// Delta cardinality overflowed the group bound — the view
				// itself would have failed folding these; rebuild instead.
				v.dirty.Store(true)
				v.wake()
				return false
			}
		}
		if len(deltas) == 0 {
			continue
		}
		p := v.parts[i]
		p.mu.Lock()
		p.store.Sub(deltas)
		p.mu.Unlock()
		v.w.viewSubtractions.Add(1)
	}
	return true
}

// applyTrimFlat is the unbucketed case: one frame, nothing drops whole.
func (v *View) applyTrimFlat(cursors []*segCursor, shardIdx map[*shard]int) {
	if !v.plan.Func.Subtractable() {
		v.dirty.Store(true)
		v.wake()
		return
	}
	dropped := make([][]Event, len(v.parts))
	for _, c := range cursors {
		if c.pos == 0 {
			continue
		}
		i := shardIdx[c.sh]
		switch {
		case c.mem != nil:
			for j := 0; j < c.pos; j++ {
				dropped[i] = append(dropped[i], c.mem.events[c.mem.byTime[j]])
			}
		case c.loaded != nil:
			dropped[i] = append(dropped[i], c.loaded[:c.pos]...)
		default:
			// A cold file dropped whole by envelope: its events are not in
			// memory to subtract.
			v.dirty.Store(true)
			v.wake()
			return
		}
	}
	if !v.subtractBoundary(dropped) {
		return
	}
	v.mutations.Add(1)
	v.wake()
}
