package warehouse

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// TestViewStress hammers incremental view maintenance while the store is at
// its busiest: tiny segments spilling continuously, skewed writers with deep
// stragglers, a retention flapper forcing full rebuilds that race the tap
// folds, concurrent Rows readers, and subscribers of every temperament —
// draining, never reading (forcing shed+resnapshot), and connect/disconnect
// churn. Run under -race in CI.
//
// Invariants: at the final quiescent point every view's maintained state
// equals a fresh Aggregate over the same query; stalled subscribers were
// actually shed (latest-wins, never blocking); and releasing everything
// frees every view and subscriber slot.
func TestViewStress(t *testing.T) {
	const (
		writers   = 4
		perWriter = 800
		maxEvents = 1200
	)
	cfg := Config{
		Shards: 4, SegmentEvents: 64, SegmentSpan: 20 * time.Minute,
		DataDir: t.TempDir(), HotSegments: 1, Sync: persist.SyncNever,
	}
	w, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	specs := []struct {
		aq     AggQuery
		policy ops.UpdatePolicy
	}{
		{AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}}, ops.UpdatePolicy{}},
		{AggQuery{Func: ops.AggAvg, Field: "temperature", GroupBy: []string{"theme"}, Bucket: time.Hour},
			ops.UpdatePolicy{Mode: ops.UpdateInterval, Every: 5 * time.Millisecond}},
		{AggQuery{Query: Query{Themes: []string{"weather"}}, Func: ops.AggMin, Field: "temperature", GroupBy: []string{"source"}},
			ops.UpdatePolicy{Mode: ops.UpdateCount, N: 50}},
	}
	views := make([]*View, len(specs))
	for i, sp := range specs {
		v, err := w.RegisterView(sp.aq, sp.policy)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Draining subscribers: consume every update for the whole run.
	for i := 0; i < 3; i++ {
		sub, err := w.Subscribe(specs[i%len(specs)].aq, SubscribeOptions{
			Policy: specs[i%len(specs)].policy, Buffer: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for {
				select {
				case <-stop:
					return
				case _, ok := <-sub.Updates():
					if !ok {
						return
					}
				}
			}
		}()
	}
	// Stalled subscribers: never read. Shedding must drop-and-resnapshot
	// behind their backs without ever blocking ingest or the publisher.
	var stalled []*Subscription
	for i := 0; i < 3; i++ {
		sub, err := w.Subscribe(specs[i%len(specs)].aq, SubscribeOptions{
			Policy: specs[i%len(specs)].policy, Buffer: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, sub)
	}
	// Churners: subscribe, take one update, disconnect, repeat — the
	// registry must hand slots back mid-stream.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := w.Subscribe(specs[i%len(specs)].aq, SubscribeOptions{Buffer: 2})
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-sub.Updates():
				case <-stop:
				}
				sub.Close()
			}
		}(i)
	}
	// Rows readers: a concurrent reader must never observe a torn rebuild
	// (a half-installed accumulator set) and must never error.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := views[i%len(views)].Rows(); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	// Retention flapper: every cut invalidates all views and forces full
	// rebuilds underneath the folds and the readers.
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
			time.Sleep(time.Millisecond)
		}
	}()

	var writerWG sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		writerWG.Add(1)
		go func(wr int) {
			defer writerWG.Done()
			source := fmt.Sprintf("view-%d", wr)
			skew := time.Duration(wr) * 7 * time.Minute
			for i := 0; i < perWriter; i++ {
				off := skew + time.Duration(i)*time.Minute
				if i%8 == 7 {
					off -= 5 * time.Hour // straggler: churns the ooo segment
				}
				var tup *stt.Tuple
				if i%5 == 4 {
					tup = sTuple(off, "view stress")
				} else {
					tup = wTuple(off, float64(i%40), source, 34.7, 135.5)
				}
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
		}(wr)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	w.SetRetention(maxEvents) // settle on the final bound
	w.DrainSpills()

	// Quiescent point: every view's incrementally-maintained state must
	// equal a fresh scan of the survivors.
	for i, sp := range specs {
		got, err := views[i].Rows()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := w.Aggregate(context.Background(), sp.aq)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffAggRows(got, want); diff != "" {
			t.Errorf("view %d diverges after stress: %s", i, diff)
		}
	}
	// The stalled subscribers must have been shed (their buffer is 1 and
	// thousands of updates were published), and their single pending update
	// must say so — otherwise the shedding path went unexercised.
	sawShed := false
	for _, sub := range stalled {
		select {
		case u := <-sub.Updates():
			if u.Shed > 0 && u.Resnapshot {
				sawShed = true
			}
		default:
		}
		sub.Close()
	}
	if !sawShed {
		t.Error("stalled subscribers were never shed; stress is vacuous")
	}
	for _, v := range views {
		v.Release()
	}
	waitFor(t, 5*time.Second, "all views and subscribers to drain", func() bool {
		return w.ViewCount() == 0 && w.SubscriberCount() == 0
	})
}
