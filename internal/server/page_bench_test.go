package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"streamloader/internal/stt"
)

// benchPageTuples is the page the system benchmark's select reads: one
// minute of readings from 8 sensors that arrive in 256-event runs, each
// with one float payload. The coordinates repeat along every run.
func benchPageTuples(n int) []*stt.Tuple {
	s := stt.MustSchema([]stt.Field{stt.NewField("temperature", stt.KindFloat, "celsius")},
		stt.GranMinute, stt.SpatPoint, "temperature")
	minute := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	out := make([]*stt.Tuple, n)
	for i := range out {
		src := i / 256 % 8
		out[i] = &stt.Tuple{Schema: s, Values: []stt.Value{stt.Float(15 + float64(i%97)/8)},
			Time: minute, Lat: 34.6 + float64(src)/100, Lon: 135.4 + float64(src)/100,
			Theme: "temperature", Source: fmt.Sprintf("temperature-%d", src+1)}
	}
	return out
}

// chainPageTuples is a chain-mem-shaped page: one minute from 8 sources in
// 500-event runs, each source with its own schema as its operator chain
// leaves it — a quantized reading, a site label and the reading's
// full-precision twin (a unit conversion or a derived property, such as
// temperature*1.8+32). A reading is drawn the way the sensors draw theirs:
// a baseline plus Gaussian noise, rounded to one or two decimals.
func chainPageTuples(n int) []*stt.Tuple {
	sources := []struct {
		id, reading, twin    string
		base, noise, quantum float64 // quantum 10 rounds to 0.1, 100 to 0.01
		mul, add             float64 // twin = reading*mul + add
	}{
		{"temperature-1", "temperature", "temp_f", 22, 0.4, 10, 1.8, 32},
		{"temperature-2", "temperature", "temp_f", 21.4, 0.4, 10, 1.8, 32},
		{"temperature-3", "temperature", "temp_c", 71.6, 0.72, 10, 5.0 / 9, -160.0 / 9},
		{"humidity-1", "humidity", "dryness", 62, 3, 10, -0.01, 1},
		{"humidity-2", "humidity", "dryness", 58, 3, 10, -0.01, 1},
		{"rain-1", "rain_rate", "rain_in", 6, 0.4, 100, 1 / 25.4, 0},
		{"river-level-1", "level", "level_m", 2.2, 0.05, 100, 0.9144, 0},
		{"traffic-1", "congestion", "delay", 0.45, 0.1, 100, 11.1, 0},
	}
	rng := rand.New(rand.NewSource(1))
	minute := time.Date(2016, 3, 15, 9, 41, 0, 0, time.UTC)
	schemas := make([]*stt.Schema, len(sources))
	for i, src := range sources {
		schemas[i] = stt.MustSchema([]stt.Field{
			stt.NewField(src.reading, stt.KindFloat, ""), stt.NewField("site", stt.KindString, ""),
			stt.NewField(src.twin, stt.KindFloat, ""),
		}, stt.GranMinute, stt.SpatCellCity, src.reading)
	}
	out := make([]*stt.Tuple, n)
	for i := range out {
		k := i / 500 % len(sources)
		src := sources[k]
		r := math.Round((src.base+rng.NormFloat64()*src.noise)*src.quantum) / src.quantum
		out[i] = &stt.Tuple{Schema: schemas[k],
			Values: []stt.Value{stt.Float(r), stt.String(src.id), stt.Float(r*src.mul + src.add)},
			Time:   minute, Lat: 34.65 + float64(k%3)/10, Lon: 135.45 + float64(k/3)/10,
			Theme: src.reading, Source: src.id}
	}
	return out
}

// pageAllocsBenchShaped bounds the allocations of one 5000-event
// bench-shaped page, Select and encode together. It is the count of a page
// whose encoder list is empty, as a store's first pages find it: 94, against
// 92 with a kept encoder. The empty list costs the encoder (its coordinate
// tables and arena are inside it) and the table of the page's one payload
// field. It was 96 while a sync.Pool kept the encoders, whose per-P array
// was allocated again after each collection, and 99 when each page had its
// own encoder, whose coordinate buffers allocated 7 per page. Lower it when
// a change saves one.
const pageAllocsBenchShaped = 94

// BenchmarkQueryPageBenchShaped serves one bench-shaped 5000-event JSON
// page per iteration and reports the cost per event. It fails when a page
// allocates more than pageAllocsBenchShaped times, with its encoder kept
// or not.
func BenchmarkQueryPageBenchShaped(b *testing.B) {
	benchQueryPage(b, benchPageTuples, pageAllocsBenchShaped)
}

// BenchmarkQueryPageChainShaped serves one chain-mem-shaped 5000-event JSON
// page (chainPageTuples) per iteration and reports the cost per event.
func BenchmarkQueryPageChainShaped(b *testing.B) {
	benchQueryPage(b, chainPageTuples, 0)
}

// pageServer returns a server's page of tuples(events) as a function that
// serves it once, into a body buffer it reuses.
func pageServer(tb testing.TB, tuples func(n int) []*stt.Tuple, events int) func() *httptest.ResponseRecorder {
	srv, _ := newTestServer(tb)
	if err := srv.Warehouse.AppendBatch(tuples(events)); err != nil {
		tb.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/warehouse/query?limit=%d", events), nil)
	body := bytes.NewBuffer(make([]byte, 0, 2<<20))
	return func() *httptest.ResponseRecorder {
		body.Reset()
		rec := httptest.NewRecorder()
		rec.Body = body
		h.ServeHTTP(rec, req)
		return rec
	}
}

// TestPageEncodersBuiltOnce gates the encoders a run of bench-shaped pages
// builds: served one after another, the pages share one encoder, however
// many collections run between them. A sync.Pool built one every 20-30
// pages here, each time a collection emptied it.
func TestPageEncodersBuiltOnce(t *testing.T) {
	const pages = 100
	page := pageServer(t, benchPageTuples, 5000)
	defer func(l *encoderList) { pageEncoders = l }(pageEncoders)
	pageEncoders = newEncoderList(cap(pageEncoders.free))
	for i := 0; i < pages; i++ {
		if rec := page(); rec.Code != 200 {
			t.Fatalf("page %d: status %d", i, rec.Code)
		}
	}
	if built := pageEncoders.built.Load(); built > 1 {
		t.Fatalf("%d pages built %d encoders, want 1", pages, built)
	}
}

// benchQueryPage serves the page of tuples(5000) per iteration. A non-zero
// maxAllocs bounds its allocations.
func benchQueryPage(b *testing.B, tuples func(n int) []*stt.Tuple, maxAllocs int) {
	const events = 5000
	page := pageServer(b, tuples, events)
	rec := page()
	if rec.Code != 200 || bytes.Count(rec.Body.Bytes(), []byte(`{"seq":`)) != events {
		b.Fatalf("status %d, %d bytes: not a %d-event page", rec.Code, rec.Body.Len(), events)
	}
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.StopTimer()
	if maxAllocs == 0 {
		return
	}
	if perPage := testing.AllocsPerRun(3, func() { page() }); perPage > float64(maxAllocs) {
		b.Fatalf("%.0f allocations for a %d-event page, want at most %d", perPage, events, maxAllocs)
	}
	// Pages that each start with an empty encoder list, as a store's first
	// pages find it, averaged as AllocsPerRun averages. No collection runs
	// meanwhile: it would empty the warehouse's pools.
	const coldPages = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < coldPages; i++ {
		for len(pageEncoders.free) > 0 {
			<-pageEncoders.free
		}
		page()
	}
	runtime.ReadMemStats(&after)
	if cold := (after.Mallocs - before.Mallocs) / coldPages; cold > uint64(maxAllocs) {
		b.Fatalf("%d allocations for a %d-event page with an empty encoder list, want at most %d", cold, events, maxAllocs)
	}
}
