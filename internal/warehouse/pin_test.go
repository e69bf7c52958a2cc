package warehouse

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"testing"
	"time"

	"streamloader/internal/persist"
	"streamloader/internal/stt"
)

// TestPinnedUnitsSurviveCutSpillCompaction holds the shard to its two
// invariants — a sealed unit is never written after construction, and unit
// lists are replaced, never edited — the way a reader that pins the lists
// and reads off-lock would depend on them. It copies both shards' unit lists
// under the read lock, releases it, and then, with no further appends, runs
// a retention cut that trims a sealed hot segment and a cold file, a spill
// and a cold-file compaction, while a goroutine reads the pinned copy. A
// select and a count over the pinned hot segments and the pinned files the
// cut left on disk give the pre-cut answer byte for byte throughout, and
// every pinned cold unit keeps its live count, envelope and count maps.
// Files the cut or the compaction deleted are not read: keeping them
// readable for their pinners is a refcount's job, not the lists'.
func TestPinnedUnitsSurviveCutSpillCompaction(t *testing.T) {
	const segEvents = 64
	w, err := Open(Config{
		Shards: 2, SegmentEvents: segEvents, SegmentSpan: time.Hour,
		DataDir: t.TempDir(), HotSegments: 3, Sync: persist.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Shard a takes a reading a second for 512 s: eight full segments, of
	// which the hot budget keeps three and the spiller writes five files.
	// Shard b takes 192 readings over the same span: three sealed segments,
	// all resident. A cut to about t=140 s then drops a's first two files
	// whole and trims its third, and trims b's first segment.
	var srcA, srcB string
	for i := 0; srcA == "" || srcB == ""; i++ {
		src := "pin-" + strconv.Itoa(i)
		switch w.shardFor(src).idx {
		case 0:
			srcA = src
		case 1:
			srcB = src
		}
	}
	reading := func(src string, at time.Duration, i int) *stt.Tuple {
		tup := &stt.Tuple{Schema: social, Values: []stt.Value{stt.String(src + "#" + strconv.Itoa(i))},
			Time: t0.Add(at), Lat: 34.7, Lon: 135.5, Theme: "social", Source: src}
		return tup.AlignSTT()
	}
	var batch []*stt.Tuple
	for i := 0; i < 8*segEvents; i++ {
		batch = append(batch, reading(srcA, time.Duration(i)*time.Second, i))
		if i%8 < 3 {
			batch = append(batch, reading(srcB, time.Duration(i)*time.Second+time.Second/2, i))
		}
	}
	for len(batch) > 0 {
		n := min(len(batch), 50)
		if err := w.AppendBatch(batch[:n]); err != nil {
			t.Fatal(err)
		}
		batch = batch[n:]
	}
	w.DrainSpills()
	w.CompactNow()

	a, b := w.shards[0], w.shards[1]
	pin := func(s *shard) *shard {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return &shard{idx: s.idx, segs: s.segs, cold: s.cold, hot: s.hot, ooo: s.ooo}
	}
	pinA, pinB := pin(a), pin(b)
	if len(pinA.cold) != 5 || len(pinA.segs) != 3 || len(pinB.cold) != 0 || len(pinB.segs) != 3 {
		t.Fatalf("pinned a: %d files, %d segments; b: %d files, %d segments; want 5, 3; 0, 3",
			len(pinA.cold), len(pinA.segs), len(pinB.cold), len(pinB.segs))
	}
	type coldState struct {
		skip, count              int
		head, tail               persist.Key
		sources, themes, primary map[string]int
	}
	stateOf := func(cs *coldSegment) coldState {
		return coldState{cs.skip, cs.count, cs.head, cs.tail,
			maps.Clone(cs.sourceCounts), maps.Clone(cs.themeCounts), maps.Clone(cs.primaryThemes)}
	}
	var before []coldState
	for _, cs := range pinA.cold {
		before = append(before, stateOf(cs))
	}

	// The pinned copy read: the cut deletes a's first two files, so the
	// read covers the files from the trimmed one on, and every segment.
	readable := &Warehouse{shards: []*shard{
		{idx: 0, cold: pinA.cold[2:], segs: pinA.segs},
		{idx: 1, segs: pinB.segs},
	}, mask: w.mask}
	answer := func() (string, error) {
		var out []byte
		for _, q := range []Query{{}, {From: t0.Add(100 * time.Second), To: t0.Add(300 * time.Second)}} {
			pl := scanPlan{Query: q, proj: persist.FullProjection}
			_, err := mergeShards(context.Background(), readable, &pl, 0, func(ev Event) {
				out = strconv.AppendUint(out, ev.Seq, 10)
				out = ev.Tuple.AppendJSON(append(out, ' '))
				out = append(out, '\n')
			})
			if err != nil {
				return "", err
			}
			for _, cq := range []Query{q, {From: q.From, To: q.To, Sources: []string{srcA}}, {From: q.From, To: q.To, Cond: "text != \"\""}} {
				pl := scanPlan{Query: cq, proj: cq.projection()}
				vs, _, _, err := scanShards(context.Background(), readable, &pl, func() *countVisitor {
					return &countVisitor{q: &pl.Query, timeOnly: cq.Cond == "" && len(cq.Sources) == 0}
				})
				if err != nil {
					return "", err
				}
				for _, v := range vs {
					out = fmt.Appendf(out, "count %d\n", v.n)
				}
			}
		}
		return string(out), nil
	}
	want, err := answer()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var readerErr error
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := answer()
			if err == nil && got != want {
				err = fmt.Errorf("pinned answer changed while the store moved on:\n%s\nwant\n%s", got, want)
			}
			if err != nil {
				readerErr = err
				return
			}
		}
	}()

	// The cut, with its trims of a sealed hot segment and a cold file.
	const drop = 194
	w.SetRetention((w.Len() - drop) * 4 / 3)
	a.mu.RLock()
	trimmedFile := len(a.cold) == 3 && a.cold[0].info == pinA.cold[2].info && a.cold[0].count < segEvents
	a.mu.RUnlock()
	b.mu.RLock()
	trimmedSeg := len(b.segs) == 3 && b.segs[0].len() < segEvents
	b.mu.RUnlock()
	if !trimmedFile || !trimmedSeg {
		t.Fatalf("the cut trimmed a cold file: %v, a sealed segment: %v; want both", trimmedFile, trimmedSeg)
	}

	// A spill of b's trimmed segment and the one after it, then the
	// compaction that merges the small file of the trimmed one into its
	// neighbour; the spill nudges the compactor itself.
	compactions := w.compactions.Load()
	b.mu.Lock()
	b.hotSegments = 1
	b.maybeSpillLocked(w)
	b.mu.Unlock()
	w.DrainSpills()
	w.CompactNow()
	if w.compactions.Load() == compactions {
		t.Fatal("no compaction ran after the spill")
	}

	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	got, err := answer()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("pinned answer after the cut, spill and compaction:\n%s\nwant\n%s", got, want)
	}
	for i, cs := range pinA.cold {
		if st := stateOf(cs); fmt.Sprint(st) != fmt.Sprint(before[i]) {
			t.Fatalf("pinned cold unit %d changed: %+v, was %+v", i, st, before[i])
		}
	}
}
