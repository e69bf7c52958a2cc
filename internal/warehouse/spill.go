package warehouse

import (
	"path/filepath"
	"sync"
	"sync/atomic"

	"streamloader/internal/persist"
)

// spiller is the per-warehouse background spill worker. Append paths that
// find a shard over its hot-segment budget enqueue sealed segments here and
// return immediately; the worker writes each segment file outside any shard
// lock and only re-acquires the lock for the brief swap that replaces the
// in-memory segment with its cold envelope. Ingest therefore never stalls
// on a segment flush — the file write, the expensive part, runs entirely
// off the hot path.
//
// The pipeline is crash-idempotent at every step. Until the swap, readers
// see the segment as hot and its WAL records stay live, so a crash before
// the file is published loses nothing (the WAL replays it) and a crash
// after publication but before the swap leaves a segment file whose events
// recovery dedupes against the WAL by sequence number. A segment the
// retention compactor trims or drops while its file write is in flight
// fails the swap validation; the stale file is deleted and the segment
// (if it survived) is re-enqueued by a later append.
type spiller struct {
	w *Warehouse

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []spillReq
	inFlight int
	closed   bool

	// aborted is the crash switch: the worker stops at its next checkpoint
	// without draining, leaving whatever on-disk state the "crash" produced
	// for recovery to sort out. CloseHard sets it.
	aborted atomic.Bool

	wg sync.WaitGroup
}

// spillReq names one sealed segment to flush.
type spillReq struct {
	s   *shard
	seg *segment
}

// backlogPerShard sizes the spill queue bound: appends start throttling
// (off-lock, via throttle) once more than this many segments per shard sit
// queued. It caps the memory the pipeline can hold beyond the hot budget —
// at most backlogPerShard×shards sealed segments await their file — while
// staying deep enough that a bursty shard never waits on a healthy disk.
const backlogPerShard = 4

func newSpiller(w *Warehouse) *spiller {
	sp := &spiller{w: w}
	sp.cond = sync.NewCond(&sp.mu)
	return sp
}

// start launches the worker. Separate from construction so Open can
// enqueue recovery backlog before the shards are shared with a goroutine.
func (sp *spiller) start() {
	sp.wg.Add(1)
	go sp.loop()
}

// enqueue queues one segment for spilling. Caller holds the owning shard's
// lock and has marked the segment spilling.
func (sp *spiller) enqueue(s *shard, seg *segment) {
	sp.mu.Lock()
	sp.queue = append(sp.queue, spillReq{s: s, seg: seg})
	sp.cond.Broadcast()
	sp.mu.Unlock()
}

func (sp *spiller) loop() {
	defer sp.wg.Done()
	for {
		sp.mu.Lock()
		for len(sp.queue) == 0 && !sp.closed && !sp.aborted.Load() {
			sp.cond.Wait()
		}
		if sp.aborted.Load() || (sp.closed && len(sp.queue) == 0) {
			sp.mu.Unlock()
			return
		}
		req := sp.queue[0]
		sp.queue[0] = spillReq{}
		sp.queue = sp.queue[1:]
		sp.inFlight++
		sp.cond.Broadcast() // the queue shrank: wake throttled appenders
		sp.mu.Unlock()

		sp.w.spillOne(req)

		sp.mu.Lock()
		sp.inFlight--
		sp.cond.Broadcast() // wake DrainSpills waiters
		sp.mu.Unlock()
	}
}

// close drains the queue — every pending segment is spilled — and stops the
// worker. Idempotent.
func (sp *spiller) close() {
	sp.mu.Lock()
	sp.closed = true
	sp.cond.Broadcast()
	sp.mu.Unlock()
	sp.wg.Wait()
}

// abort stops the worker as a crash would: pending requests are dropped
// and an in-flight file write completes without its swap, exactly the disk
// state a kill between rename and swap leaves behind. It waits for the
// worker to exit so the data directory is quiescent before recovery reads
// it. Idempotent.
func (sp *spiller) abort() {
	sp.aborted.Store(true)
	sp.mu.Lock()
	sp.cond.Broadcast()
	sp.mu.Unlock()
	sp.wg.Wait()
}

// drain blocks until the queue is empty and no spill is in flight.
func (sp *spiller) drain() {
	sp.mu.Lock()
	for (len(sp.queue) > 0 || sp.inFlight > 0) && !sp.aborted.Load() {
		sp.cond.Wait()
	}
	sp.mu.Unlock()
}

// throttle blocks while the queue is over its bound, holding no shard
// lock: when ingest outruns the disk, appends slow to the spill worker's
// pace instead of queueing sealed segments without limit. Readers and
// other shards are unaffected — only the producing goroutine waits.
func (sp *spiller) throttle(maxQueue int) {
	sp.mu.Lock()
	for len(sp.queue) > maxQueue && !sp.closed && !sp.aborted.Load() {
		sp.cond.Wait()
	}
	sp.mu.Unlock()
}

// throttleSpill applies spill backpressure to an append path; a no-op for
// in-memory warehouses and whenever the queue is shallow. Called after the
// shard lock is released.
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
	if !s.containsSegLocked(seg) || seg.len() == 0 {
		// Retention dropped the segment whole while it sat in the queue.
		seg.spilling = false
		s.mu.Unlock()
		return
	}
	events := s.spillSnapshotLocked(seg)
	snapLen := len(events)
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
	w.installSpill(s, seg, info, snapLen, seqHi)
}

// installSpill swaps a written segment file for its in-memory segment and
// checkpoints the WAL, under the shard lock. If retention touched the
// segment while the file was being written, the file is stale — its
// contents include events that were just evicted — so it is discarded and
// the surviving segment left in memory for a later retry.
func (w *Warehouse) installSpill(s *shard, seg *segment, info *persist.SegmentInfo, snapLen int, seqHi uint64) {
	s.mu.Lock()
	idx := -1
	for i, sg := range s.segs {
		if sg == seg {
			idx = i
			break
		}
	}
	if idx < 0 || seg.len() != snapLen {
		seg.spilling = false
		s.mu.Unlock()
		_ = info.Remove() // never installed, so never cached or read
		return
	}
	s.segs = append(s.segs[:idx], s.segs[idx+1:]...)
	cs := w.newColdSegment(info)
	cs.seqHi = seqHi
	s.cold = append(s.cold, cs)
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
