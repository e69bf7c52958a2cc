package warehouse

import (
	"fmt"
	"testing"
	"time"

	"streamloader/internal/obs"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// TestSyncIntervalSyncsAfterIngestGoesQuiet: an acked batch followed by
// silence is fsynced within about one SyncEvery, not left to the next
// append or Close. Appending once used to be the only thing that synced, so
// the second of two back-to-back batches stayed unsynced while ingest idled.
func TestSyncIntervalSyncsAfterIngestGoesQuiet(t *testing.T) {
	w, err := Open(Config{
		Shards: 4, DataDir: t.TempDir(), Obs: obs.NewRegistry(),
		Sync: persist.SyncInterval, SyncEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for b := 0; b < 2; b++ {
		batch := make([]*stt.Tuple, 0, 16)
		for i := 0; i < 16; i++ {
			batch = append(batch, wTuple(time.Duration(b*16+i)*time.Second, 20, fmt.Sprintf("osaka-%d", i%8), 34.7, 135.5))
		}
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	for i, s := range w.shards {
		if _, unsynced := s.wal.UnsyncedSince(); unsynced {
			t.Errorf("shard %d: WAL still holds unsynced appends after 50ms idle at SyncEvery 10ms", i)
		}
	}
	if n := w.met.walSync.Snapshot().Count; n == 0 {
		t.Error("no WAL fsync recorded")
	}
}
