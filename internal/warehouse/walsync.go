package warehouse

import (
	"log"
	"sync"
	"time"
)

// walSyncer is the SyncInterval policy's one fsync site: a goroutine that
// fsyncs a shard's WAL one period after the first append no fsync has
// covered (persist.WAL.UnsyncedSince, SyncDirty). It takes no shard lock, so
// a commit never waits on the disk, and an acked batch is synced within one
// period (plus the fsyncs queued before it), even when ingest goes quiet
// after it. Under steady ingest a shard syncs once a period; a shard
// appended to now and then syncs a period after each burst, not at every
// tick of a fixed clock, which keeps the count of fsyncs near that of
// syncing on the first append a period after the last sync. A failed fsync
// is logged once; the WAL then fails every later append.
type walSyncer struct {
	stop chan struct{}
	done sync.WaitGroup
	once sync.Once
}

// startWALSyncer launches the syncer over w's shards, whose WALs must all
// be open and stay open until stopWALSyncer returns.
func (w *Warehouse) startWALSyncer(every time.Duration) {
	ws := &walSyncer{stop: make(chan struct{})}
	w.walSync = ws
	ws.done.Add(1)
	go func() {
		defer ws.done.Done()
		t := time.NewTimer(every)
		defer t.Stop()
		for {
			select {
			case <-ws.stop:
				return
			case <-t.C:
			}
			// Sleep until the next shard falls due, or a whole period: an
			// append after this round is due no sooner than that.
			next := every
			now := time.Now()
			for i, s := range w.shards {
				since, unsynced := s.wal.UnsyncedSince()
				if !unsynced {
					continue
				}
				if wait := since.Add(every).Sub(now); wait > 0 {
					next = min(next, wait)
					continue
				}
				if err := s.wal.SyncDirty(); err != nil {
					log.Printf("warehouse: shard %d: WAL fsync failed, its appends fail from now on: %v", i, err)
				}
			}
			t.Reset(next)
		}
	}()
}

// stopWALSyncer stops the syncer and waits for a sync in flight; the WALs
// may close once it returns. Idempotent, and a no-op without a syncer.
func (w *Warehouse) stopWALSyncer() {
	if ws := w.walSync; ws != nil {
		ws.once.Do(func() { close(ws.stop) })
		ws.done.Wait()
	}
}
