package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"streamloader/internal/stt"
	"streamloader/internal/warehouse"
)

// referenceTupleMap is the generic-map rendering of an event the query
// handler gave encoding/json before stt.Tuple.AppendJSON existed; the
// golden test holds the handler's bytes to it.
func referenceTupleMap(t *stt.Tuple) map[string]any {
	m := make(map[string]any, t.Schema.NumFields()+5)
	for i, v := range t.Values {
		m[t.Schema.Field(i).Name] = v.GoValue()
	}
	m["_time"] = t.Time.UTC().Format(time.RFC3339Nano)
	m["_lat"] = t.Lat
	m["_lon"] = t.Lon
	if t.Theme != "" {
		m["_theme"] = t.Theme
	}
	if t.Source != "" {
		m["_source"] = t.Source
	}
	return m
}

// referenceQueryBody renders a query page the way the handler did when it
// built a map per event and a map for the envelope and left the whole
// document to encoding/json.
func referenceQueryBody(t *testing.T, format string, page []warehouse.Event, offset int,
	truncated bool, qs warehouse.QueryStats, trace any) []byte {
	t.Helper()
	type eventView struct {
		Seq   uint64         `json:"seq"`
		Event map[string]any `json:"event"`
	}
	summary := map[string]any{
		"count": len(page), "segments": qs, "offset": offset, "truncated": truncated,
	}
	if trace != nil {
		summary["trace"] = trace
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	encode := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("reference encoding: %v", err)
		}
	}
	views := make([]eventView, 0, len(page))
	for _, ev := range page {
		views = append(views, eventView{Seq: ev.Seq, Event: referenceTupleMap(ev.Tuple)})
	}
	if format == "ndjson" {
		for _, v := range views {
			encode(v)
		}
		encode(map[string]any{"summary": summary})
		return body.Bytes()
	}
	summary["events"] = views
	encode(summary)
	return body.Bytes()
}

// goldenTuples mixes two schemas and the values the wire encoder has a
// rule for: every kind, escapes in values and in a field name, a field
// named _time, exponent-form floats, missing theme and source.
func goldenTuples(n int) []*stt.Tuple {
	station := stt.MustSchema([]stt.Field{
		stt.NewField("temperature", stt.KindFloat, "celsius"),
		stt.NewField("station", stt.KindString, ""),
		stt.NewField("ok", stt.KindBool, ""),
		stt.NewField("reads", stt.KindInt, ""),
		stt.NewField("calibrated", stt.KindTime, ""),
		stt.NewField("note", stt.KindString, ""),
	}, stt.GranSecond, stt.SpatPoint, "weather")
	social := stt.MustSchema([]stt.Field{
		stt.NewField("text", stt.KindString, ""),
		stt.NewField("_time", stt.KindString, ""),
		stt.NewField(`a"<b>`, stt.KindFloat, ""),
	}, stt.GranSecond, stt.SpatPoint, "social")
	base := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	floats := []float64{15.25, -0.5, 1e-7, 1e21, 0, math.Copysign(0, -1), 123456789.125}
	texts := []string{"plain", `<b>"tweet" & co\</b>`, "tab\there\nline\x01", "bad\xffutf8 \u2028 大阪", ""}
	out := make([]*stt.Tuple, n)
	for i := range out {
		when := base.Add(time.Duration(i)*time.Second + time.Duration(i%3)*time.Millisecond)
		if i%2 == 0 {
			out[i] = &stt.Tuple{
				Schema: station,
				Values: []stt.Value{
					stt.Float(floats[i%len(floats)]), stt.String(texts[i%len(texts)]), stt.Bool(i%4 == 0),
					stt.Int(int64(i) - 3), stt.Time(when.Add(-time.Hour)), stt.Null(),
				},
				Time: when, Lat: 34.70 + float64(i)/1000, Lon: 135.50,
				Theme: "weather", Source: fmt.Sprintf("station-%d", i%3),
			}
		} else {
			out[i] = &stt.Tuple{
				Schema: social,
				Values: []stt.Value{stt.String(texts[i%len(texts)]), stt.String("shadowed"), stt.Float(floats[i%len(floats)])},
				Time:   when, Lat: -floats[i%len(floats)], Lon: 1e-9,
			}
			if i%5 == 0 {
				out[i].Theme, out[i].Source = "social", "tweet<&>"
			}
		}
	}
	return out
}

func getBody(t *testing.T, u string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestWarehouseQueryGoldenBody: the full response body of the query
// endpoint, both formats, equals the old map-based rendering byte for byte.
func TestWarehouseQueryGoldenBody(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(goldenTuples(40)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name          string
		params        url.Values
		offset, limit int
	}{
		{"default page", url.Values{}, 0, 100},
		{"truncated", url.Values{"limit": {"7"}}, 0, 7},
		{"offset", url.Values{"limit": {"5"}, "offset": {"9"}}, 9, 5},
		{"offset to the end", url.Values{"limit": {"100"}, "offset": {"33"}}, 33, 100},
		{"offset past the end", url.Values{"offset": {"50"}}, 50, 100},
		{"empty page", url.Values{"themes": {"nothing"}}, 0, 100},
		{"one theme", url.Values{"themes": {"weather"}, "limit": {"11"}}, 0, 11},
		{"trace", url.Values{"trace": {"1"}, "limit": {"6"}}, 0, 6},
	}
	for _, tc := range cases {
		for _, format := range []string{"json", "ndjson"} {
			t.Run(tc.name+"/"+format, func(t *testing.T) {
				params := url.Values{"format": {format}}
				for k, v := range tc.params {
					params[k] = v
				}
				code, got := getBody(t, ts.URL+"/api/warehouse/query?"+params.Encode())
				if code != http.StatusOK {
					t.Fatalf("status = %d, body %s", code, got)
				}

				// The expected page, from the warehouse directly.
				q, err := warehouse.ParseQueryValues(params)
				if err != nil {
					t.Fatal(err)
				}
				q.Limit = tc.offset + tc.limit + 1
				evs, qs, err := srv.Warehouse.Select(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				truncated := len(evs) > tc.offset+tc.limit
				if truncated {
					evs = evs[:tc.offset+tc.limit]
				}
				evs = evs[min(tc.offset, len(evs)):]

				// A trace carries timings no second run repeats: take the
				// subtree the handler sent, check it decoded, and splice
				// it into the reference as is.
				var trace any
				if tc.params.Get("trace") == "1" {
					summary := got
					if format == "ndjson" {
						lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
						var last struct {
							Summary json.RawMessage `json:"summary"`
						}
						if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
							t.Fatal(err)
						}
						summary = last.Summary
					}
					var sent struct {
						Trace json.RawMessage `json:"trace"`
					}
					if err := json.Unmarshal(summary, &sent); err != nil {
						t.Fatalf("%v in %s", err, summary)
					}
					var decoded traceJSON
					if err := json.Unmarshal(sent.Trace, &decoded); err != nil {
						t.Fatalf("trace subtree: %v in %s", err, sent.Trace)
					}
					checkTrace(t, decoded, "warehouse_query")
					trace = sent.Trace
				}

				want := referenceQueryBody(t, format, evs, tc.offset, truncated, qs, trace)
				if !bytes.Equal(got, want) {
					t.Fatalf("body differs from the map-based rendering:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestWarehouseQueryGoldenLargePage crosses the page-buffer flush
// threshold several times: the pieces must still join into one document.
func TestWarehouseQueryGoldenLargePage(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(goldenTuples(3000)); err != nil {
		t.Fatal(err)
	}
	code, got := getBody(t, ts.URL+"/api/warehouse/query?limit=3000")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(got) < 3*pageFlushBytes {
		t.Fatalf("page is %d bytes; the test wants several flushes of %d", len(got), pageFlushBytes)
	}
	evs, qs, err := srv.Warehouse.Select(context.Background(), warehouse.Query{Limit: 3001})
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceQueryBody(t, "json", evs, 0, false, qs, nil); !bytes.Equal(got, want) {
		t.Fatal("3000-event body differs from the map-based rendering")
	}
}

// TestWarehouseQueryNonFinite is the regression test for a stored NaN or
// Inf (sqrt(-1) or log(0) in a virtual property is enough): the JSON page
// used to come back 200 with an empty body, the NDJSON page stopped short
// of its summary line. Both now carry the event with the value as null.
func TestWarehouseQueryNonFinite(t *testing.T) {
	srv, ts := newTestServer(t)
	tuples := queryTuples(4)
	tuples[1].Values[0] = stt.Float(math.NaN())
	tuples[2].Values[0] = stt.Float(math.Inf(-1))
	if err := srv.Warehouse.AppendBatch(tuples); err != nil {
		t.Fatal(err)
	}
	wantTemps := []any{15.0, nil, nil, 18.0}

	var page struct {
		Count  int `json:"count"`
		Events []struct {
			Event map[string]any `json:"event"`
		} `json:"events"`
	}
	code, body := getBody(t, ts.URL+"/api/warehouse/query")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("JSON page with a NaN in it: %v (body %q)", err, body)
	}
	if page.Count != 4 || len(page.Events) != 4 {
		t.Fatalf("count = %d, events = %d, want 4", page.Count, len(page.Events))
	}
	for i, ev := range page.Events {
		if got := ev.Event["temperature"]; got != wantTemps[i] {
			t.Errorf("event %d temperature = %v, want %v", i, got, wantTemps[i])
		}
	}

	code, body = getBody(t, ts.URL+"/api/warehouse/query?format=ndjson")
	if code != http.StatusOK {
		t.Fatalf("ndjson status = %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d NDJSON lines, want 4 events and a summary:\n%s", len(lines), body)
	}
	for i, line := range lines[:4] {
		var ev struct {
			Event map[string]any `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v in %q", i, err, line)
		}
		if got := ev.Event["temperature"]; got != wantTemps[i] {
			t.Errorf("line %d temperature = %v, want %v", i, got, wantTemps[i])
		}
	}
	if !strings.HasPrefix(lines[4], `{"summary":{"count":4,`) {
		t.Errorf("last line = %q, want the summary", lines[4])
	}
}

// TestWriteJSONEncodeFailureIs500: a value encoding/json refuses must not
// leave as the requested status over an empty body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"value": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "NaN") {
		t.Fatalf("body = %q (%v), want an error naming the value", rec.Body, err)
	}
}

// BenchmarkQueryPage5000 serves one 5000-event JSON page per iteration —
// the page size the system benchmark's select uses. The gate is the point
// of the wire encoder: a page costs fewer allocations than it has events
// (one map plus one boxed value per member made it ~32 per event).
func BenchmarkQueryPage5000(b *testing.B) {
	const events = 5000
	srv, _ := newTestServer(b)
	if err := srv.Warehouse.AppendBatch(goldenTuples(events)); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/warehouse/query?limit=%d", events), nil)
	page := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rec.Body.Grow(2 << 20)
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := page()
	if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`{"seq":`)) != events {
		b.Fatalf("status %d, %d bytes: not a %d-event page", rec.Code, rec.Body.Len(), events)
	}
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page()
	}
	b.StopTimer()
	if perPage := testing.AllocsPerRun(3, func() { page() }); perPage >= events {
		b.Fatalf("%.0f allocations for a %d-event page — the gate is under one per event", perPage, events)
	}
}
