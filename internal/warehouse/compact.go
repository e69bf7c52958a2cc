package warehouse

import (
	"path/filepath"
	"slices"
	"sort"

	"streamloader/internal/persist"
)

// compactor is the per-warehouse background cold-file compactor. Retention
// trims leave behind small cold files, and out-of-order side-segment spills
// leave files that overlap a neighbour; both prune poorly and multiply
// per-query header checks. The compactor merges runs of files that are
// small or overlapping by (time, seq) key into one well-pruning neighbor;
// full-size files in order are never rewritten, even where neighbours
// share a boundary event time. It uses the spiller's discipline — select
// and validate under the shard lock, do the file I/O with no lock held,
// swap briefly under the lock — so queries see identical results before,
// during and after a compaction.
//
// Crash safety leans on one manifest record per rewrite. Until the merged
// file is published, nothing has changed on disk. Once it is published but
// before the CompactionRecord lands in the manifest, the merged file's
// seqs are a subset of its victims', so recovery detects it as a duplicate
// and deletes it — the compaction is harmlessly undone. After the record
// lands — saveManifest returned nil, so it is on disk, not merely renamed
// into place — recovery finishes the victim deletions instead (they are
// idempotent), so no interleaving of crash and deletion can register the
// same event twice.
type compactor struct {
	// The queue is of shards to check; the job re-derives the actual
	// candidates under the shard lock, so a nudge is cheap and a shard
	// already waiting is not queued again.
	*worker[*shard]
	// below is the live-event count under which a cold file is "small";
	// maxOut caps the merged file's events so compaction cannot build an
	// ever-growing mega-file.
	below  int
	maxOut int
}

// maxCompactFiles bounds how many cold files one rewrite merges, keeping
// each compaction's read-merge-write bounded in memory and time.
const maxCompactFiles = 8

func newCompactor(w *Warehouse, below, segmentEvents int) *compactor {
	c := &compactor{below: below, maxOut: 2 * segmentEvents}
	c.worker = newWorker(func(s *shard) {
		// A merge can expose another mergeable run (the merged file may
		// itself still be small); keep going until the shard is settled.
		for w.compactShardOnce(s) && !c.aborted.Load() {
		}
	})
	return c
}

// maybeCompactCold nudges the compactor about a shard whose cold list just
// changed (a spill landed, retention trimmed). No-op when compaction is
// disabled or the warehouse is in-memory.
func (w *Warehouse) maybeCompactCold(s *shard) {
	if w.compact != nil {
		w.compact.enqueue(s)
	}
}

// CompactNow enqueues every shard for a compaction check and waits for the
// compactor to go idle — tests and the model checker use it to reach a
// settled file layout. Queries need no such barrier. No-op for an
// in-memory warehouse or when compaction is disabled.
func (w *Warehouse) CompactNow() {
	if w.compact == nil {
		return
	}
	for _, s := range w.shards {
		w.compact.enqueue(s)
	}
	w.compact.drain()
}

// pickCompactionLocked selects the next run of cold segments worth
// rewriting: neighbours in live head key order where each join is
// justified — one side is small, or the two overlap by (time, seq) key
// (the previous tail is not below the next head: an out-of-order side
// spill) — capped at maxCompactFiles files and maxOut merged events.
// Full-size files in order are never rewritten: two that only share a
// boundary event time do not join. A run is at least two segments. Caller
// holds the shard lock.
func (s *shard) pickCompactionLocked(below, maxOut int) []*coldSegment {
	order := make([]*coldSegment, len(s.cold))
	copy(order, s.cold)
	sort.Slice(order, func(i, j int) bool { return order[i].head.Less(order[j].head) })
	eligible := func(cs *coldSegment) bool { return !cs.compacting }
	small := func(cs *coldSegment) bool { return cs.count < below }
	for i := range order {
		if !eligible(order[i]) {
			continue
		}
		run := []*coldSegment{order[i]}
		total := order[i].count
		for j := i + 1; j < len(order) && len(run) < maxCompactFiles; j++ {
			cs := order[j]
			prev := run[len(run)-1]
			if !eligible(cs) || total+cs.count > maxOut {
				break
			}
			if !small(prev) && !small(cs) && prev.tail.Less(cs.head) {
				break
			}
			run = append(run, cs)
			total += cs.count
		}
		if len(run) >= 2 {
			return run
		}
	}
	return nil
}

// compactShardOnce runs at most one compaction on the shard, returning
// whether it rewrote anything: pick and mark victims under the lock, read
// and merge their live events and write the merged file with no lock held,
// then validate-record-swap. Any validation failure or I/O error abandons
// the rewrite with the store untouched.
func (w *Warehouse) compactShardOnce(s *shard) bool {
	s.mu.Lock()
	victims := s.pickCompactionLocked(w.compact.below, w.compact.maxOut)
	if victims == nil {
		s.mu.Unlock()
		return false
	}
	for _, cs := range victims {
		cs.compacting = true
	}
	gen := s.nextSegGen
	s.nextSegGen++
	path := filepath.Join(s.dir, persist.SegmentFileName(gen))
	s.mu.Unlock()
	t0 := w.met.compaction.Start()
	defer w.met.compaction.Since(t0)

	release := func() {
		s.mu.Lock()
		for _, cs := range victims {
			cs.compacting = false
		}
		s.mu.Unlock()
	}
	if w.compact.aborted.Load() {
		return false // crash before any I/O: nothing changed
	}

	// The victims and their files are immutable, so their live suffixes
	// read safely with no lock held. Each file is already (time, seq)
	// sorted; the merge re-sorts the concatenation.
	var events []persist.Event
	oldGens := make([]int, 0, len(victims))
	for _, cs := range victims {
		g, err := persist.ParseSegmentFileName(filepath.Base(cs.info.Path))
		if err != nil {
			release()
			return false
		}
		oldGens = append(oldGens, g)
		pes, err := cs.live()
		if err != nil {
			release()
			return false
		}
		events = append(events, pes...)
	}
	persist.SortEvents(events)

	info, err := persist.WriteSegment(path, events)
	if err != nil {
		release()
		return false
	}
	if w.compact.aborted.Load() {
		// Crash after publication, before the record: the merged file is an
		// exact duplicate of its victims' live events, which recovery
		// detects by seq and deletes.
		return false
	}
	return w.installCompaction(s, victims, info, gen, oldGens)
}

// installCompaction swaps the merged file in for its victims. It holds
// retMu throughout: retMu excludes retention, the only code besides the
// compactor itself that trims or drops a cold file, and it serializes
// manifest writes. The shard lock is taken only to read and to swap the
// cold list, never across I/O:
//  1. validate the victims still listed, under the read lock: a unit never
//     changes, and a trim or drop replaces or removes it;
//  2. record the rewrite in the manifest, holding no shard lock;
//  3. swap the merged file in for the victims, under the write lock;
//  4. delete the victims' files and retire the record, with no shard lock.
//
// No reader can reach a victim once step 3 releases the lock, and the
// record is on disk before the first victim is deleted.
func (w *Warehouse) installCompaction(s *shard, victims []*coldSegment, info *persist.SegmentInfo, gen int, oldGens []int) bool {
	w.retMu.Lock()
	defer w.retMu.Unlock()

	s.mu.RLock()
	valid := true
	for _, cs := range victims {
		if !slices.Contains(s.cold, cs) {
			valid = false
			break
		}
	}
	s.mu.RUnlock()
	abandon := func() bool {
		s.mu.Lock()
		for _, cs := range victims {
			cs.compacting = false
		}
		s.mu.Unlock()
		// A failed delete is reaped at the next Open: no record names the
		// merged file, and every live event it holds is still in a
		// registered victim, so the duplicate pass drops it.
		_ = info.Remove()
		return false
	}
	if !valid {
		return abandon()
	}

	// Record the rewrite before deleting anything: once victims start
	// disappearing, only the record lets recovery tell "merged file plus
	// surviving victim" from two live files.
	rec := persist.CompactionRecord{Shard: s.idx, NewGen: gen, OldGens: oldGens}
	w.pers.manifest.Compactions = append(w.pers.manifest.Compactions, rec)
	if err := w.saveManifest(); err != nil {
		w.pers.manifest.Compactions = w.pers.manifest.Compactions[:len(w.pers.manifest.Compactions)-1]
		return abandon()
	}

	var seqHi uint64
	isVictim := make(map[*coldSegment]bool, len(victims))
	var oldBytes int64
	for _, cs := range victims {
		seqHi = max(seqHi, cs.seqHi)
		isVictim[cs] = true
		oldBytes += cs.info.Bytes
	}
	newCS := w.newColdSegment(info, seqHi)
	s.mu.Lock()
	kept := make([]*coldSegment, 0, len(s.cold)-len(victims)+1)
	placed := false
	for _, cs := range s.cold {
		if isVictim[cs] {
			if !placed {
				kept = append(kept, newCS)
				placed = true
			}
			continue
		}
		kept = append(kept, cs)
	}
	s.cold = kept
	s.mu.Unlock()

	for _, cs := range victims {
		_ = cs.info.Remove() // a failed delete is finished at next Open via the record
		cs.cache.Invalidate(cs.info.Path)
	}
	w.coldBytes.Add(info.Bytes - oldBytes)
	w.compactions.Add(1)
	w.segsCompacted.Add(uint64(len(victims)))

	// Victims are gone; retire the record. A failed save (counted by
	// saveManifest) just means the next Open re-runs the (idempotent)
	// deletions.
	recs := w.pers.manifest.Compactions
	for i := range recs {
		if recs[i].Shard == rec.Shard && recs[i].NewGen == rec.NewGen {
			w.pers.manifest.Compactions = append(recs[:i], recs[i+1:]...)
			break
		}
	}
	_ = w.saveManifest()
	return true
}
