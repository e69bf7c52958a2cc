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

// The old-format fixtures. No code in this build can write a v1 or v2
// segment file, so testdata/seg-v1.seg and testdata/seg-v2.seg are the
// inputs that keep their open and decode paths tested: each was written
// once, by the last commit that still had WriteSegmentVersion, over
// fixtureCorpus with the arguments in fixtures below. A test that needs an
// old file regenerates the corpus and compares; nothing regenerates the
// files.
var fixtures = []struct {
	path    string
	version int
	seqBase uint64
	start   time.Duration
}{
	{"testdata/seg-v1.seg", SegmentV1, 1_000_000, 0},
	{"testdata/seg-v2.seg", SegmentV2, 2_000_000, time.Hour},
}

// fixtureCorpus builds three chunks of second-spaced events starting at
// t0+start with seqs from seqBase up — far above anything a fresh store
// assigns, so a fixture planted in a data dir never collides with it. Both
// test schemas interleave; every 14th event carries a NaN payload and every
// 5th an empty theme and source.
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

// TestOldFormatFixtures reads each checked-in v1/v2 file through the one
// read loop — uncached, then cached twice, at every chunk alignment, with
// the full projection and with a narrow one (which a file without column
// structure answers with whole rows) — and every read must equal the
// regenerated corpus.
func TestOldFormatFixtures(t *testing.T) {
	for _, fx := range fixtures {
		want := fixtureCorpus(fx.seqBase, fx.start)
		info, seqs, err := OpenSegment(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != fx.version || info.Count != len(want) || len(seqs) != len(want) || info.NumChunks() != 3 {
			t.Fatalf("%s: version=%d count=%d seqs=%d chunks=%d, want v%d with %d events in 3 chunks",
				fx.path, info.Version, info.Count, len(seqs), info.NumChunks(), fx.version, len(want))
		}
		for i, ev := range want {
			if seqs[i] != ev.Seq {
				t.Fatalf("%s: seq block [%d] = %d, want %d", fx.path, i, seqs[i], ev.Seq)
			}
		}
		ranges := [][2]int{
			{0, info.Count},
			{0, 1},
			{IndexEvery - 1, IndexEvery + 1}, // straddles a chunk boundary
			{IndexEvery, 2 * IndexEvery},     // exactly the interior chunk
			{2 * IndexEvery, info.Count},     // the short tail chunk
			{5, 2 * IndexEvery},
		}
		for _, proj := range []Projection{FullProjection, {Mask: ColTime, Field: "temperature"}} {
			cache := NewChunkCache(1 << 20)
			for pass, c := range []*ChunkCache{nil, cache, cache} {
				for _, r := range ranges {
					got, rs, err := info.ReadRangeProjected(c, r[0], r[1], proj)
					if err != nil {
						t.Fatalf("%s pass %d range %v: %v", fx.path, pass, r, err)
					}
					sameEvents(t, got, want[r[0]:r[1]])
					if pass == 2 && (rs.CacheMisses != 0 || rs.BytesDecoded != 0) {
						t.Fatalf("%s range %v: warm cache read %+v, want all hits", fx.path, r, rs)
					}
				}
			}
		}
	}
}

// TestOldFormatFixturesTruncated cuts each fixture short at a spread of
// offsets (FuzzSegmentRoundTrip adds fuzz-chosen ones), so v1/v2 open and
// decode still face damaged input.
func TestOldFormatFixturesTruncated(t *testing.T) {
	for _, fx := range fixtures {
		raw, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, cut := range []int{0, 7, 8, 12, len(raw) / 4, len(raw) / 2, len(raw) - len(raw)/8, len(raw) - 1} {
			requireTruncationFails(t, raw, cut, dir)
		}
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
