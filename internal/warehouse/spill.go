package warehouse

import (
	"path/filepath"
	"slices"

	"streamloader/internal/persist"
)

// spiller is the per-warehouse background spill worker. Append paths that
// find a shard over its hot-segment budget enqueue sealed segments here and
// return immediately; the worker writes each segment file outside any shard
// lock and only re-acquires the lock for the brief swap that replaces the
// in-memory segment with its cold envelope (spillOne). Ingest therefore
// never stalls on a segment flush — the file write, the expensive part, runs
// entirely off the hot path.
//
// The pipeline is crash-idempotent at every step. Until the swap, readers
// see the segment as hot and its WAL records stay live, so a crash before
// the file is published loses nothing (the WAL replays it) and a crash
// after publication but before the swap leaves a segment file whose events
// recovery dedupes against the WAL by sequence number. A segment the
// retention compactor trims or drops while its file write is in flight is
// no longer listed when the swap validates (a trim lists a new unit in its
// place); the stale file is deleted and the trimmed unit, if any, is
// enqueued by a later append.
//
// A producer enqueues under the owning shard's lock, having marked the
// segment spilling, so no segment is ever queued twice.
type spiller = worker[spillReq]

// spillReq names one sealed segment to flush.
type spillReq struct {
	s   *shard
	seg *segment
}

// backlogPerShard sizes the spill queue bound: appends start throttling
// (off-lock, via throttleSpill) once more than this many segments per shard
// sit queued. It caps the memory the pipeline can hold beyond the hot budget
// — at most backlogPerShard×shards sealed segments await their file — while
// staying deep enough that a bursty shard never waits on a healthy disk.
const backlogPerShard = 4

// throttleSpill applies spill backpressure to an append path, holding no
// shard lock: when ingest outruns the disk, appends slow to the spill
// worker's pace instead of queueing sealed segments without limit. Readers
// and other shards are unaffected — only the producing goroutine waits. A
// no-op for in-memory warehouses and whenever the queue is shallow.
func (w *Warehouse) throttleSpill() {
	if w.spill != nil {
		w.spill.throttle(backlogPerShard * len(w.shards))
	}
}

// DrainSpills blocks until every queued background spill has completed.
// Queries need no such barrier — a segment is readable throughout its spill
// — but tests and benchmarks use it to reach a settled hot/cold split.
// No-op for an in-memory warehouse.
func (w *Warehouse) DrainSpills() {
	if w.spill != nil {
		w.spill.drain()
	}
}

// spillOne flushes one queued segment: snapshot under the shard lock, file
// write outside it, swap under it again.
func (w *Warehouse) spillOne(req spillReq) {
	s, seg := req.s, req.seg

	s.mu.Lock()
	if !slices.Contains(s.segs, seg) {
		// Retention dropped the segment whole while it sat in the queue.
		seg.spilling = false
		s.mu.Unlock()
		return
	}
	events := s.spillSnapshotLocked(seg)
	gen := s.nextSegGen
	s.nextSegGen++
	path := filepath.Join(s.dir, persist.SegmentFileName(gen))
	s.mu.Unlock()
	t0 := w.met.spill.Start()
	defer w.met.spill.Since(t0)

	if w.spill.aborted.Load() {
		return // crash before the file exists: WAL still owns the events
	}
	info, err := persist.WriteSegment(path, events)
	if err != nil {
		// Durability is unaffected — the WAL records survive — and the
		// segment stays queryable in memory; a later append re-enqueues.
		s.mu.Lock()
		seg.spilling = false
		s.mu.Unlock()
		return
	}
	if w.spill.aborted.Load() {
		// Crash after publication, before the swap: recovery re-registers
		// the file and dedupes its WAL records by seq.
		return
	}
	var seqHi uint64
	for _, ev := range events {
		if ev.Seq > seqHi {
			seqHi = ev.Seq
		}
	}
	w.installSpill(s, seg, info, seqHi)
}

// installSpill swaps a written segment file for its in-memory segment and
// checkpoints the WAL, under the shard lock. If retention trimmed or
// dropped the segment while the file was being written, the segment is no
// longer listed and the file is stale — its contents include events that
// were just evicted — so it is discarded, and the trimmed unit left in
// memory for a later spill.
func (w *Warehouse) installSpill(s *shard, seg *segment, info *persist.SegmentInfo, seqHi uint64) {
	s.mu.Lock()
	idx := slices.Index(s.segs, seg)
	if idx < 0 {
		seg.spilling = false
		s.mu.Unlock()
		_ = info.Remove() // never installed, so never cached or read
		return
	}
	s.segs = slices.Concat(s.segs[:idx], s.segs[idx+1:])
	s.cold = append(s.cold, w.newColdSegment(info, seqHi))
	w.segsSpilled.Add(1)
	w.coldBytes.Add(info.Bytes)
	// The swap may have raised the shard's minimum live seq; retire WAL
	// files the spilled file now makes obsolete.
	s.wal.DropObsolete(s.minLiveSeqLocked())
	s.mu.Unlock()
	// A fresh cold file may complete a mergeable run (small straggler
	// spills, overlapping side segments).
	w.maybeCompactCold(s)
}
