package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/partial"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// Tests for the view handoff (View.install): a history scan or a checkpoint
// taken at a shard's seq cut, plus a fold of the tail above it, installed
// under the shard's write lock while the view's tap stays attached.

// TestViewCheckpointAfterTeardown: a publisher mid-iteration can reach
// writeCheckpoint after Release's teardown has taken the taps off. That late
// write must not persist frames that stopped at the detach beside a SeqHi
// that kept advancing: the re-registration resumes from the clean release's
// checkpoint, and its tail fold brings the later event in.
func TestViewCheckpointAfterTeardown(t *testing.T) {
	w, err := Open(Config{
		Shards: 2, SegmentEvents: 16, DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	trimLoad(t, w, 100)
	q := AggQuery{Func: ops.AggSum, Field: "temperature", GroupBy: []string{"source"}}
	v, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	v.Release() // checkpoint, then teardown
	if err := w.Append(wTuple(200*time.Minute, 7, "s-1", 34.7, 135.5)); err != nil {
		t.Fatal(err)
	}
	v.writeCheckpoint() // the publisher's late iteration
	resumes := w.viewResumes.Load()
	v2, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Release()
	if w.viewResumes.Load() == resumes {
		t.Fatal("re-registration did not resume from the checkpoint")
	}
	got, err := v2.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffAggRows(got, aggRows(t, w, q)); diff != "" {
		t.Fatalf("resumed view diverges: %s", diff)
	}
}

// TestViewResumeUnderConcurrentBatches: a view released while writers commit
// cross-shard batches checkpoints mid-ingest; re-registered once they stop,
// it resumes from that checkpoint and must equal Aggregate. It did not while
// AppendBatch reserved its seqs before locking: a batch holding lower seqs
// could commit after a checkpoint recorded a higher SeqHi, and the tail fold
// (seq > SeqHi) skipped it.
func TestViewResumeUnderConcurrentBatches(t *testing.T) {
	const writers, iterations = 4, 40
	w, err := Open(Config{Shards: 4, DataDir: t.TempDir(), Sync: persist.SyncNever, ViewCheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	q := AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}}
	for it := 0; it < iterations; it++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					batch := make([]*stt.Tuple, 8)
					for j := range batch {
						batch[j] = wTuple(time.Duration(i)*time.Second, 1, fmt.Sprintf("b-%d-%d", wr, j), 34.7, 135.5)
					}
					if err := w.AppendBatch(batch); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		v, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		n := w.Len()
		waitFor(t, 5*time.Second, "ingest before the release", func() bool { return w.Len() >= n+256 })
		v.Release()
		n = w.Len()
		waitFor(t, 5*time.Second, "ingest after the release", func() bool { return w.Len() >= n+64 })
		close(stop)
		wg.Wait()

		resumes := w.viewResumes.Load()
		v2, err := w.RegisterView(q, ops.UpdatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if w.viewResumes.Load() == resumes {
			t.Fatalf("iteration %d: re-registration did not resume", it)
		}
		got, err := v2.Rows()
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffAggRows(got, aggRows(t, w, q)); diff != "" {
			t.Fatalf("iteration %d: resumed view diverges: %s", it, diff)
		}
		v2.Release()
	}
}

// TestViewInstallRefusesAfterCut: a scan pinned before a retention cut still
// holds the events the cut evicted, so install must refuse it; the view,
// trimmed in place by the cut, still equals Aggregate afterwards. This is the
// race a resume had when a cut landed between two shards' installs.
func TestViewInstallRefusesAfterCut(t *testing.T) {
	w := NewWithConfig(Config{Shards: 2, SegmentEvents: 16})
	defer w.Close()
	trimLoad(t, w, 300)
	q := AggQuery{Func: ops.AggSum, Field: "temperature", Bucket: time.Hour, GroupBy: []string{"source"}}
	v, err := w.RegisterView(q, ops.UpdatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()

	v.refreshMu.Lock()
	pl := v.plan.scanPlan()
	folds, cuts, _, err := scanShards(context.Background(), w, &pl, func() *aggVisitor {
		return &aggVisitor{p: &v.plan, flat: map[partial.Key]*partial.State{}}
	})
	if err != nil {
		v.refreshMu.Unlock()
		t.Fatal(err)
	}
	w.SetRetention(80) // the cut, between shard 0's pin and its install
	err = v.install(&pl, cuts[0], folds[0], func(*viewPart, *aggVisitor) {
		t.Error("install put a pre-cut scan in place")
	})
	v.refreshMu.Unlock()
	if !errors.Is(err, errCutMoved) {
		t.Fatalf("install after a cut = %v, want errCutMoved", err)
	}
	got, err := v.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffAggRows(got, aggRows(t, w, q)); diff != "" {
		t.Fatalf("view diverges after the refused install: %s", diff)
	}
}

// TestViewTeardownCancelsBackfill: a teardown during registration cancels
// the backfill scan; the registration returns ErrViewClosed and no shard
// keeps the view's tap.
func TestViewTeardownCancelsBackfill(t *testing.T) {
	w := NewWithConfig(Config{Shards: 4, SegmentEvents: 16})
	defer w.Close()
	trimLoad(t, w, 300)
	last := w.shards[len(w.shards)-1]
	last.mu.Lock() // the registration stalls here, before its scan
	errc := make(chan error, 1)
	go func() {
		_, err := w.RegisterView(AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}}, ops.UpdatePolicy{})
		errc <- err
	}()
	var v *View
	waitFor(t, 5*time.Second, "the view to be published", func() bool {
		w.views.mu.Lock()
		defer w.views.mu.Unlock()
		for _, cand := range w.views.m {
			v = cand
		}
		return v != nil
	})
	torn := make(chan struct{})
	go func() {
		v.teardown(nil)
		close(torn)
	}()
	waitFor(t, 5*time.Second, "teardown to cancel the view", func() bool { return v.ctx.Err() != nil })
	last.mu.Unlock()
	if err := <-errc; !errors.Is(err, ErrViewClosed) {
		t.Fatalf("registration torn down mid-backfill = %v, want ErrViewClosed", err)
	}
	<-torn
	for i, s := range w.shards {
		s.mu.RLock()
		for _, tc := range s.taps {
			if _, ok := tc.(*viewPart); ok {
				t.Errorf("shard %d kept the torn-down view's tap", i)
			}
		}
		s.mu.RUnlock()
	}
	if n := w.ViewCount(); n != 0 {
		t.Fatalf("ViewCount = %d after the teardown, want 0", n)
	}
}
