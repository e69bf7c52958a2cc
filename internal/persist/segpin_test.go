package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streamloader/internal/geo"
	"streamloader/internal/sensor"
)

// benchSegmentEvents is one bench-shaped cold file's worth of events: a
// single sensor of typ (unit variant variant), made with sensor.New at the
// bench's 50 Hz, emitting n readings from t0. The bench shards by source, so
// a spilled segment holds one sensor's stream: minute-granular times,
// sequential seqs, one schema, one source and one theme.
func benchSegmentEvents(tb testing.TB, typ sensor.Type, variant, n int) []Event {
	tb.Helper()
	s, err := sensor.New(sensor.Spec{
		ID: fmt.Sprintf("%s-1", typ), Type: typ,
		Location: geo.Point{Lat: 34.6, Lon: 135.45}, Seed: 1,
		UnitVariant: variant, FrequencyHz: 50,
	})
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]Event, 0, n)
	for ts := t0; len(events) < n; ts = ts.Add(s.Period()) {
		events = append(events, Event{Seq: uint64(len(events) + 1), Tuple: s.At(ts)})
	}
	return events
}

const benchSegmentLen = 4096

// segmentPin is one pinned WriteSegment output: its bench-shaped source
// (typ and variant; the zero typ is fixtureCorpus), the file's exact size
// and the SHA-256 of its bytes.
type segmentPin struct {
	name    string
	typ     sensor.Type
	variant int
	size    int
	sha256  string
}

// segmentPins are fixtureCorpus and one 4 096-event segment per sensor type
// the bench's fleet runs. Sizes per event: 48.55 B for fixtureCorpus, 38.56,
// 38.56, 38.50, 38.47 and 38.56 B for the numeric types, 47.30 B for traffic.
var segmentPins = []segmentPin{
	{"fixtureCorpus", "", 0, 25780, "daf77996a60eeaf0cfbb736d1bcc719e64bd40a289dbde26480a3cd48d87ee44"},
	{"temperature-celsius", sensor.TypeTemperature, 0, 157961, "533dbb0291c3fc93c5dfdb68ab44a6c2035c454a407ebefa4e96e676098b1f4d"},
	{"temperature-fahrenheit", sensor.TypeTemperature, 1, 157961, "d504786056deb135061264a807d005876f6f865cd64499832f100f264062e007"},
	{"humidity", sensor.TypeHumidity, 0, 157693, "6341c8d934ec7cc6bfbf427ad8a6e272df59e63d1b025099c06cd0997c2fe7c9"},
	{"rain", sensor.TypeRain, 0, 157557, "713c432b28933cfc737f21fe46f92307d51dd7b654572a01ef16994597f2ad50"},
	{"river-level", sensor.TypeRiverLevel, 1, 157925, "9fd7b3bd71e38a5dfd3565828f5153fa9e6ac1e6ecf65bed4ab698cec810fbe8"},
	{"traffic", sensor.TypeTraffic, 0, 193750, "e3129ed5234e058c26cec8dbfbb77b924ca04141d505cb5970fe27826315f205"},
}

func (p segmentPin) events(tb testing.TB) []Event {
	if p.typ == "" {
		return fixtureCorpus(1, 0)
	}
	return benchSegmentEvents(tb, p.typ, p.variant, benchSegmentLen)
}

// TestSegmentBytesPinned pins WriteSegment's output byte for byte: the
// SHA-256 of the whole file and its exact size (the cold bytes per event),
// for every segmentPins entry. An encoder change that moves a byte — a float
// sum folded in another order, a dictionary id assigned differently, a count
// map that lost or gained an entry — fails here, so a faster writer keeps the
// format by construction. A deliberate format change re-pins, and says why.
func TestSegmentBytesPinned(t *testing.T) {
	dir := t.TempDir()
	for i, p := range segmentPins {
		t.Run(p.name, func(t *testing.T) {
			if p.typ != "" && runtime.GOARCH != "amd64" {
				// The sensor models' float arithmetic may fuse into FMA
				// on other architectures, which changes the readings, not
				// the encoder; the bench-shaped pins are amd64's.
				t.Skipf("bench-shaped readings are pinned on amd64, not %s", runtime.GOARCH)
			}
			events := p.events(t)
			path := filepath.Join(dir, SegmentFileName(i+1))
			if _, err := WriteSegment(path, events); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if len(raw) != p.size {
				t.Errorf("file is %d B (%.2f B/event), pinned %d B (%.2f B/event)",
					len(raw), float64(len(raw))/float64(len(events)), p.size, float64(p.size)/float64(len(events)))
			}
			if got := hex.EncodeToString(sum[:]); got != p.sha256 {
				t.Errorf("file SHA-256 = %s, pinned %s", got, p.sha256)
			}
		})
	}
}
