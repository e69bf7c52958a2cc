package persist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamloader/internal/stt"
)

// fixtureCorpus builds three chunks of second-spaced events starting at
// t0+start with seqs from seqBase up. Both test schemas interleave; every
// 14th event carries a NaN payload and every 5th an empty theme and source.
func fixtureCorpus(seqBase uint64, start time.Duration) []Event {
	var events []Event
	for i := 0; i < IndexEvery*2+19; i++ {
		seq := seqBase + uint64(i)
		var ev Event
		if i%7 == 3 {
			ev = sinkEvent(seq)
			if i%14 == 3 {
				ev.Tuple.Values[2] = stt.Float(math.NaN())
			}
		} else {
			ev = wEvent(seq, 0, 15+float64(i%10), fmt.Sprintf("st-%d", i%3))
		}
		ev.Tuple.Time = t0.Add(start + time.Duration(i)*time.Second)
		if i%5 == 0 {
			ev.Tuple.Theme, ev.Tuple.Source = "", ""
		}
		events = append(events, ev)
	}
	return events
}

// ReadRange and ReadAll are the uncached full-projection read, for tests.
func (si *SegmentInfo) ReadRange(lo, hi int) ([]Event, error) {
	evs, _, err := si.ReadRangeProjected(nil, lo, hi, FullProjection)
	return evs, err
}

func (si *SegmentInfo) ReadAll() ([]Event, error) { return si.ReadRange(0, si.Count) }

// sameEvents requires got to equal want event for event, bit for bit.
func sameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("event %d seq = %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		sameTuple(t, got[i].Tuple, want[i].Tuple)
	}
}

// requireTruncationFails writes the first cut bytes of a segment file into
// dir and requires the result to fail at open or at read — never panic,
// never return events it does not hold.
func requireTruncationFails(t *testing.T, raw []byte, cut int, dir string) {
	t.Helper()
	if cut >= len(raw) {
		return
	}
	tpath := filepath.Join(dir, SegmentFileName(2))
	if err := os.WriteFile(tpath, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	ti, _, err := OpenSegment(tpath)
	if err != nil {
		return // rejected at open: fine
	}
	if evs, err := ti.ReadAll(); err == nil {
		t.Fatalf("truncated at %d of %d: read %d events of claimed %d without error",
			cut, len(raw), len(evs), ti.Count)
	}
}
