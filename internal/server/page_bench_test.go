package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
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

// pageAllocsBenchShaped bounds the allocations of one 5000-event
// bench-shaped page, Select and encode together: 92 without the encoder's
// memory, whose coordinate buffers add 7 per page, none per event. Lower it
// when a change saves one.
const pageAllocsBenchShaped = 99

// BenchmarkQueryPageBenchShaped serves one bench-shaped 5000-event JSON
// page per iteration and reports the cost per event. It fails when a page
// allocates more than pageAllocsBenchShaped times.
func BenchmarkQueryPageBenchShaped(b *testing.B) {
	const events = 5000
	srv, _ := newTestServer(b)
	if err := srv.Warehouse.AppendBatch(benchPageTuples(events)); err != nil {
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
	if perPage := testing.AllocsPerRun(3, func() { page() }); perPage > pageAllocsBenchShaped {
		b.Fatalf("%.0f allocations for a %d-event page, want at most %d", perPage, events, pageAllocsBenchShaped)
	}
}
