package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
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
// whose encoder pool is empty, as a collection leaves it: 95–96, against
// 92 with a pooled encoder. The empty pool costs the encoder (its
// coordinate tables and arena are inside it), the table of the page's one
// payload field, the per-P array sync.Pool allocates again after a
// collection, and at times the growth of the runtime's list of pools. It
// was 99 when each page had its own encoder, whose coordinate buffers
// allocated 7 per page. Lower it when a change saves one.
const pageAllocsBenchShaped = 96

// BenchmarkQueryPageBenchShaped serves one bench-shaped 5000-event JSON
// page per iteration and reports the cost per event. It fails when a page
// allocates more than pageAllocsBenchShaped times, with its encoder pooled
// or not.
func BenchmarkQueryPageBenchShaped(b *testing.B) {
	benchQueryPage(b, benchPageTuples, pageAllocsBenchShaped)
}

// BenchmarkQueryPageChainShaped serves one chain-mem-shaped 5000-event JSON
// page (chainPageTuples) per iteration and reports the cost per event.
func BenchmarkQueryPageChainShaped(b *testing.B) {
	benchQueryPage(b, chainPageTuples, 0)
}

// benchQueryPage serves the page of tuples(5000) per iteration. A non-zero
// maxAllocs bounds its allocations.
func benchQueryPage(b *testing.B, tuples func(n int) []*stt.Tuple, maxAllocs int) {
	const events = 5000
	srv, _ := newTestServer(b)
	if err := srv.Warehouse.AppendBatch(tuples(events)); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/warehouse/query?limit=%d", events), nil)
	body := bytes.NewBuffer(make([]byte, 0, 2<<20))
	page := func() *httptest.ResponseRecorder {
		body.Reset()
		rec := httptest.NewRecorder()
		rec.Body = body
		h.ServeHTTP(rec, req)
		return rec
	}
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
	// Pages that each start with an empty encoder pool, as a collection may
	// leave it, averaged as AllocsPerRun averages. No collection runs
	// meanwhile: it would empty the warehouse's pools too.
	const coldPages = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < coldPages; i++ {
		pageEncoders = sync.Pool{New: pageEncoders.New}
		page()
	}
	runtime.ReadMemStats(&after)
	if cold := (after.Mallocs - before.Mallocs) / coldPages; cold > uint64(maxAllocs) {
		b.Fatalf("%d allocations for a %d-event page with an empty encoder pool, want at most %d", cold, events, maxAllocs)
	}
}
