package persist

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

// recordSyncs swaps fileSync for one that fails while fail is set and
// otherwise records the size of every file it syncs.
type recordSyncs struct {
	mu    sync.Mutex
	sizes []int64
	fail  error
}

func swapFileSync(t *testing.T) *recordSyncs {
	rec := &recordSyncs{}
	prev := fileSync
	fileSync = func(f *os.File) error {
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if rec.fail != nil {
			return rec.fail
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		rec.sizes = append(rec.sizes, fi.Size())
		return f.Sync()
	}
	t.Cleanup(func() { fileSync = prev })
	return rec
}

func (r *recordSyncs) synced() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.sizes...)
}

// TestWALSyncDirtyCoversLastAppend: under SyncInterval an append never
// fsyncs on its own; SyncDirty covers everything appended before it, once.
func TestWALSyncDirtyCoversLastAppend(t *testing.T) {
	rec := swapFileSync(t)
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncInterval}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.SyncDirty(); err != nil || len(rec.synced()) != 0 {
		t.Fatalf("SyncDirty on a fresh log = %v after %d syncs, want nil after none", err, len(rec.synced()))
	}
	var first [2]time.Time // just before and just after the first append
	for seq := uint64(1); seq <= 2; seq++ {
		before := time.Now()
		if err := w.Append([]Event{wEvent(seq, time.Duration(seq)*time.Second, 20, "osaka-1")}); err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			first = [2]time.Time{before, time.Now()}
		}
	}
	since, unsynced := w.UnsyncedSince()
	if n := len(rec.synced()); n != 0 || !unsynced || since.Before(first[0]) || since.After(first[1]) {
		t.Fatalf("after two appends: %d syncs, unsynced %v since %v; want none, and unsynced since the first append (%v)",
			n, unsynced, since, first)
	}
	if err := w.SyncDirty(); err != nil {
		t.Fatal(err)
	}
	if got := rec.synced(); len(got) != 1 || got[0] != w.Position().Off {
		t.Fatalf("synced sizes %v, want one covering the second append's end %d", got, w.Position().Off)
	}
	if _, unsynced := w.UnsyncedSince(); unsynced {
		t.Fatal("still unsynced after SyncDirty")
	}
	if err := w.SyncDirty(); err != nil || len(rec.synced()) != 1 {
		t.Fatalf("SyncDirty with nothing appended = %v, %d syncs; want no second sync", err, len(rec.synced()))
	}
}

// TestWALFailedSyncIsSticky: a failed interval fsync may have cost the
// kernel's copy of acked appends, so the log refuses every later append
// rather than ack past it, and no later successful fsync clears that.
func TestWALFailedSyncIsSticky(t *testing.T) {
	rec := swapFileSync(t)
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncInterval}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]Event{wEvent(1, time.Second, 20, "osaka-1")}); err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("injected EIO")
	rec.fail = errDisk
	if err := w.SyncDirty(); !errors.Is(err, errDisk) {
		t.Fatalf("SyncDirty = %v, want the fsync error", err)
	}
	rec.fail = nil
	if err := w.Append([]Event{wEvent(2, 2*time.Second, 21, "osaka-1")}); !errors.Is(err, errDisk) {
		t.Fatalf("Append after a failed fsync = %v, want it to fail with that error", err)
	}
	if err := w.SyncDirty(); err != nil {
		t.Fatalf("second SyncDirty = %v; the failure is reported once", err)
	}
	if err := w.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync after a failed fsync = %v, want that error", err)
	}
	if err := w.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close after a failed fsync = %v, want that error", err)
	}
	if got := rec.synced(); len(got) != 0 {
		t.Fatalf("%d fsyncs ran after the failure, want none", len(got))
	}
	if evs, _ := replayAll(t, dir); len(evs) != 1 {
		t.Fatalf("replayed %d events, want only the one appended before the failure", len(evs))
	}
}

// TestWALSyncDirtyBesideAppends runs a syncer against appends that rotate
// the log every few batches: the race detector checks the concurrency
// contract, and replay that no append was lost to a swap.
func TestWALSyncDirtyBesideAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncInterval, SegmentBytes: 2048}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.SyncDirty(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const batches, per = 200, 4
	seq := uint64(0)
	for b := 0; b < batches; b++ {
		evs := make([]Event, per)
		for i := range evs {
			seq++
			evs[i] = wEvent(seq, time.Duration(seq)*time.Second, float64(seq), "osaka-1")
		}
		if err := w.Append(evs); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	done.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	evs, res := replayAll(t, dir)
	if len(evs) != batches*per || len(res.Files) < 10 {
		t.Fatalf("replayed %d events from %d files, want %d from at least 10", len(evs), len(res.Files), batches*per)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}
