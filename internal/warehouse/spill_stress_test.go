package warehouse

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// TestSpillThrottleBounds: the spill queue is bounded — an appender over
// the backlog cap waits (off-lock) for the worker rather than queueing
// sealed segments without limit — and the throttle never deadlocks with
// the worker, drain, or close.
func TestSpillThrottleBounds(t *testing.T) {
	w, err := Open(Config{
		Shards: 1, SegmentEvents: 8, SegmentSpan: time.Hour,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Sample the queue depth while tiny segments (8 events) seal as fast
	// as one appender can fill them: without the throttle the single
	// worker falls behind and the queue grows into the hundreds.
	bound := backlogPerShard * len(w.shards)
	stopSampling := make(chan struct{})
	maxDepth := make(chan int, 1)
	go func() {
		depth := 0
		for {
			select {
			case <-stopSampling:
				maxDepth <- depth
				return
			default:
			}
			depth = max(depth, w.spill.depth())
		}
	}()
	for i := 0; i < 5000; i++ {
		if err := w.Append(wTuple(time.Duration(i)*time.Minute, 20, "s", 34.7, 135.5)); err != nil {
			t.Fatal(err)
		}
	}
	close(stopSampling)
	// An append can seal (and enqueue) one more segment after its
	// throttle check, so the observed depth may exceed the bound by the
	// few appends in flight — but never by a multiple of it.
	if depth := <-maxDepth; depth > bound+2 {
		t.Fatalf("queue depth reached %d, bound %d: throttle not holding", depth, bound)
	}
	w.DrainSpills()
	// Sanity: throttle on a drained queue returns immediately.
	done := make(chan struct{})
	go func() { w.throttleSpill(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("throttle blocked on an empty queue")
	}
	if got := int(w.Evicted()) + w.Len(); got != 5000 {
		t.Fatalf("conservation after throttled ingest: %d, want 5000", got)
	}
}

// TestSpillStress hammers the asynchronous spill pipeline: a one-segment
// hot budget and tiny segments force continuous background spilling while
// skewed writers (with deep stragglers) ingest, time-range readers select
// and count mid-spill, and a goroutine flaps retention so compactions race
// the spill worker's write→swap window. Run under -race in CI.
//
// Invariants: no event lost or double-counted across a spill swap (every
// mid-flight Select sees unique seqs in time order; afterwards evicted +
// stored equals appended exactly), the recovered store after a crash holds
// exactly the surviving events, and the chunk cache serves repeat cold
// reads without changing any result.
func TestSpillStress(t *testing.T) {
	const (
		writers   = 6
		perWriter = 1200
		maxEvents = 1500
	)
	dir := t.TempDir()
	cfg := Config{
		Shards: 4, SegmentEvents: 64, SegmentSpan: 20 * time.Minute,
		DataDir: dir, HotSegments: 1, Sync: persist.SyncNever,
	}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: window selects and counts run while segments move from hot
	// to cold underneath them.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				from := t0.Add(time.Duration(n%20) * 30 * time.Minute)
				evs, _, err := w.Select(context.Background(), Query{From: from, To: from.Add(4 * time.Hour)})
				if err != nil {
					t.Error(err)
					return
				}
				seen := map[uint64]bool{}
				for i, ev := range evs {
					if seen[ev.Seq] {
						t.Errorf("mid-spill select saw Seq %d twice", ev.Seq)
						return
					}
					seen[ev.Seq] = true
					if i > 0 && ev.Tuple.Time.Before(evs[i-1].Tuple.Time) {
						t.Error("mid-spill select out of time order")
						return
					}
				}
				if _, _, err := w.Count(context.Background(), Query{From: from, To: from.Add(time.Hour)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Retention flapper: compactions must interleave safely with in-flight
	// spill writes (a trimmed victim's stale file is discarded, never
	// installed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				w.SetRetention(0)
			case 1:
				w.SetRetention(maxEvents)
			default:
				w.SetRetention(maxEvents / 3)
			}
		}
	}()
	// Skewed writers with deep stragglers, mixing Append and AppendBatch.
	var writerWG sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			source := fmt.Sprintf("spill-%d", wr)
			skew := time.Duration(wr) * 7 * time.Minute
			for i := 0; i < perWriter; i++ {
				off := skew + time.Duration(i)*time.Minute
				if i%8 == 7 {
					off -= 5 * time.Hour // straggler: churns the ooo segment
				}
				tup := wTuple(off, 20, source, 34.7, 135.5)
				var err error
				if i%16 == 15 {
					err = w.AppendBatch([]*stt.Tuple{tup})
				} else {
					err = w.Append(tup)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	w.SetRetention(maxEvents) // settle on the final bound
	w.DrainSpills()           // let the queue empty so stats are stable
	if st := w.Stats(); st.SegmentsSpilled == 0 {
		t.Fatal("hot budget 1 never spilled; stress is vacuous")
	}
	if w.Len() > maxEvents {
		t.Errorf("retention bound violated: %d > %d", w.Len(), maxEvents)
	}
	// Conservation: nothing lost to a swap, nothing double-counted.
	if got := int(w.Evicted()) + w.Len(); got != writers*perWriter {
		t.Errorf("evicted + len = %d, want %d", got, writers*perWriter)
	}
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != w.Len() {
		t.Errorf("select all = %d, Len = %d", len(evs), w.Len())
	}
	seen := map[uint64]bool{}
	for i, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate sequence %d after spilling", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && ev.Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("final select out of time order")
		}
	}
	// Repeat the full select: the second pass rides the chunk cache and
	// must be byte-identical.
	again, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(evs) {
		t.Fatalf("cached re-select = %d events, want %d", len(again), len(evs))
	}
	for i := range again {
		if again[i].Seq != evs[i].Seq {
			t.Fatalf("cached re-select diverges at %d", i)
		}
	}
	if st := w.Stats(); st.ColdCacheHits == 0 && st.SegmentsCold > 0 {
		t.Error("repeat cold reads never hit the chunk cache")
	}

	// Crash and recover: the surviving set must come back exactly.
	beforeLen := w.Len()
	w.CloseHard()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != beforeLen {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), beforeLen)
	}
	revs, _, err := re.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range revs {
		if revs[i].Seq != evs[i].Seq {
			t.Fatalf("recovered select diverges at %d: seq %d, want %d", i, revs[i].Seq, evs[i].Seq)
		}
	}
}
