package warehouse

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamloader/internal/stt"
)

func TestAppendBatchMatchesAppend(t *testing.T) {
	single, batched := New(), New()
	var batch []*stt.Tuple
	for i := 0; i < 200; i++ {
		// Several sources so the batch spans shards; slightly out of order.
		off := time.Duration(i^1) * time.Minute
		tup := wTuple(off, float64(i%30), fmt.Sprintf("st-%d", i%7), 34.5+float64(i%20)*0.01, 135.3)
		if err := single.Append(tup); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tup)
	}
	if err := batched.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if single.Len() != batched.Len() {
		t.Fatalf("Len: single = %d, batched = %d", single.Len(), batched.Len())
	}
	for _, q := range []Query{
		{},
		{From: t0.Add(30 * time.Minute), To: t0.Add(90 * time.Minute)},
		{Sources: []string{"st-3"}},
		{Themes: []string{"weather"}, Cond: "temperature > 15"},
		{Limit: 17},
	} {
		a, _, err := single.Select(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := batched.Select(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %+v: single = %d, batched = %d", q, len(a), len(b))
		}
		for i := range a {
			if !a[i].Tuple.Time.Equal(b[i].Tuple.Time) || a[i].Tuple.Source != b[i].Tuple.Source {
				t.Fatalf("query %+v: result %d differs", q, i)
			}
		}
	}
}

func TestAppendBatchValidation(t *testing.T) {
	w := New()
	err := w.AppendBatch([]*stt.Tuple{
		wTuple(0, 20, "a", 34.7, 135.5),
		nil,
		wTuple(time.Minute, 21, "b", 34.7, 135.5),
	})
	if err == nil {
		t.Fatal("batch with nil tuple must fail")
	}
	if w.Len() != 0 {
		t.Errorf("failed batch must store nothing, got %d events", w.Len())
	}
	if err := w.AppendBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

func TestBatchSeqOrderPreserved(t *testing.T) {
	w := New()
	var batch []*stt.Tuple
	for i := 0; i < 50; i++ {
		batch = append(batch, wTuple(time.Hour, 20, fmt.Sprintf("s%d", i%5), 34.7, 135.5))
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	// All tuples share one event time, so Select ordering falls back to
	// Seq, which must reflect batch order even across shards.
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 50 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Tuple != batch[i] {
			t.Fatalf("event %d out of batch order", i)
		}
	}
}

func TestRetentionAcrossShards(t *testing.T) {
	w := NewWithConfig(Config{Shards: 4})
	w.SetRetention(100)
	// Four sources land on (up to) four shards; appends interleave in
	// global time order, so eviction must coordinate across shards.
	for i := 0; i < 400; i++ {
		tup := wTuple(time.Duration(i)*time.Minute, 20, fmt.Sprintf("src-%d", i%4), 34.7, 135.5)
		if err := w.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() > 101 {
		t.Errorf("retention violated: %d events", w.Len())
	}
	if got := int(w.Evicted()) + w.Len(); got != 400 {
		t.Errorf("evicted + len = %d, want 400", got)
	}
	evs, _, err := w.Select(context.Background(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("time order broken after cross-shard compaction")
		}
	}
	// Eviction removes the globally oldest events, not a per-shard quota.
	if oldest := evs[0].Tuple.Time; oldest.Before(t0.Add(250 * time.Minute)) {
		t.Errorf("old events survived retention: oldest = %v", oldest)
	}
}

// TestSegmentRotationRace hammers segment rotation specifically: tiny
// segment bounds force constant rotation, skewed writers emit deep
// stragglers so the out-of-order side segments churn too, time-range
// readers run throughout, and a goroutine flaps retention on and off
// mid-rotation. Run under -race in CI. No event may be lost or
// double-counted across a rotation: every mid-flight read must see unique
// sequences in time order, and afterwards evicted + stored must equal
// appended exactly.
func TestSegmentRotationRace(t *testing.T) {
	const (
		writers   = 6
		perWriter = 1500
		maxEvents = 1200
	)
	w := NewWithConfig(Config{Shards: 4, SegmentEvents: 64, SegmentSpan: 20 * time.Minute})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Time-range readers overlapping the writers' windows.
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
						t.Errorf("mid-rotation select saw Seq %d twice", ev.Seq)
						return
					}
					seen[ev.Seq] = true
					if i > 0 && ev.Tuple.Time.Before(evs[i-1].Tuple.Time) {
						t.Error("mid-rotation select out of time order")
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
	// Retention flapper: off, then a tight bound, repeatedly.
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
	// Skewed writers: each has its own source and clock offset, advancing
	// mostly in order but emitting a deep straggler every 8th event.
	var writerWG sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			source := fmt.Sprintf("rot-%d", wr)
			skew := time.Duration(wr) * 7 * time.Minute
			for i := 0; i < perWriter; i++ {
				off := skew + time.Duration(i)*time.Minute
				if i%8 == 7 {
					off -= 5 * time.Hour // straggler: lands in the ooo segment
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
	if w.Len() > maxEvents {
		t.Errorf("retention bound violated after ingest: %d > %d", w.Len(), maxEvents)
	}
	// Conservation: nothing lost, nothing double-counted.
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
			t.Fatalf("duplicate sequence %d after rotation", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && ev.Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("final select out of time order")
		}
	}
	if st := w.Stats(); st.Events != w.Len() {
		t.Errorf("Stats.Events = %d, Len = %d", st.Events, w.Len())
	}
}

// TestConcurrentWarehouse hammers Append/AppendBatch/Select/Stats/
// SetRetention from many goroutines; run under -race in CI. Afterwards it
// asserts sequence uniqueness, time-ordered selects and retention bounds.
func TestConcurrentWarehouse(t *testing.T) {
	const (
		writers   = 8
		perWriter = 1000
		maxEvents = 2000
	)
	w := New()
	w.SetRetention(maxEvents)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: overlapping selects, counts and stats during ingest.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs, _, err := w.Select(context.Background(), Query{From: t0, To: t0.Add(500 * time.Minute)})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 1; i < len(evs); i++ {
					if evs[i].Tuple.Time.Before(evs[i-1].Tuple.Time) {
						t.Error("mid-ingest select out of time order")
						return
					}
				}
				if _, _, err := w.Count(context.Background(), Query{Themes: []string{"weather"}}); err != nil {
					t.Error(err)
					return
				}
				_ = w.Stats()
				_ = w.Len()
			}
		}()
	}
	// A goroutine flapping retention settings.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				w.SetRetention(maxEvents)
			} else {
				w.SetRetention(maxEvents / 2)
			}
		}
	}()
	// Writers: half single appends, half batches, distinct sources.
	var writerWG sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			source := fmt.Sprintf("sensor-%d", wr)
			if wr%2 == 0 {
				for i := 0; i < perWriter; i++ {
					tup := wTuple(time.Duration(i)*time.Minute, 20, source, 34.7, 135.5)
					if err := w.Append(tup); err != nil {
						t.Error(err)
						return
					}
				}
			} else {
				const batchSize = 50
				for i := 0; i < perWriter; i += batchSize {
					batch := make([]*stt.Tuple, 0, batchSize)
					for j := 0; j < batchSize; j++ {
						batch = append(batch, wTuple(time.Duration(i+j)*time.Minute, 20, source, 34.7, 135.5))
					}
					if err := w.AppendBatch(batch); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	w.SetRetention(maxEvents) // settle on the final bound
	if w.Len() > maxEvents {
		t.Errorf("retention bound violated after ingest: %d > %d", w.Len(), maxEvents)
	}
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
			t.Fatalf("duplicate sequence %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && ev.Tuple.Time.Before(evs[i-1].Tuple.Time) {
			t.Fatal("final select out of time order")
		}
	}
}
