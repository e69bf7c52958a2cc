package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamloader/internal/stt"
	"streamloader/internal/warehouse"
)

var queryWeather = stt.MustSchema([]stt.Field{
	stt.NewField("temperature", stt.KindFloat, "celsius"),
}, stt.GranMinute, stt.SpatPoint, "weather")

func queryTuples(n int) []*stt.Tuple {
	base := time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)
	out := make([]*stt.Tuple, n)
	for i := range out {
		tup := &stt.Tuple{
			Schema: queryWeather,
			Values: []stt.Value{stt.Float(float64(15 + i))},
			Time:   base.Add(time.Duration(i) * time.Minute),
			Lat:    34.70, Lon: 135.50,
			Theme:  "weather",
			Source: "station-1",
		}
		out[i] = tup.AlignSTT()
	}
	return out
}

func TestWarehouseQuery(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(10)); err != nil {
		t.Fatal(err)
	}

	var res struct {
		Count  int `json:"count"`
		Events []struct {
			Seq   uint64         `json:"seq"`
			Event map[string]any `json:"event"`
		} `json:"events"`
		Segments struct {
			Scanned int `json:"segments_scanned"`
			Pruned  int `json:"segments_pruned"`
		} `json:"segments"`
	}
	u := ts.URL + "/api/warehouse/query?themes=weather&cond=" + url.QueryEscape("temperature > 19")
	if code := getJSON(t, u, &res); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	// temperatures 15..24: five exceed 19.
	if res.Count != 5 || len(res.Events) != 5 {
		t.Fatalf("count = %d, events = %d, want 5", res.Count, len(res.Events))
	}
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Seq < res.Events[i-1].Seq {
			t.Error("results out of order")
		}
	}

	// Limit caps the result at the earliest events.
	res.Events = nil
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=3", &res); code != 200 {
		t.Fatalf("limit query status = %d", code)
	}
	if res.Count != 3 {
		t.Fatalf("limited count = %d, want 3", res.Count)
	}

	// Time-range constraint.
	res.Events = nil
	u = ts.URL + "/api/warehouse/query?from=" + url.QueryEscape("2016-03-15T00:02:00Z") +
		"&to=" + url.QueryEscape("2016-03-15T00:05:00Z")
	if code := getJSON(t, u, &res); code != 200 {
		t.Fatalf("range query status = %d", code)
	}
	if res.Count != 3 {
		t.Fatalf("range count = %d, want 3", res.Count)
	}
	// The query response carries segment-pruning telemetry: ten events in
	// one fresh segment means exactly one segment was scanned, none pruned.
	if res.Segments.Scanned != 1 || res.Segments.Pruned != 0 {
		t.Errorf("segments = %+v, want 1 scanned / 0 pruned", res.Segments)
	}
}

func TestWarehouseQueryBadParams(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"from=yesterday",
		"to=later",
		"region=1,2,3",
		"limit=-1",
		"limit=10001",
		"limit=abc",
		"offset=-1",
		"offset=abc",
	} {
		if code := getJSON(t, ts.URL+"/api/warehouse/query?"+q, nil); code != 400 {
			t.Errorf("query %q status = %d, want 400", q, code)
		}
	}
}

// TestWarehouseQueryCountOnly: limit=0 returns the match count without
// materializing any event, through the warehouse Count fast path.
func TestWarehouseQueryCountOnly(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(500)); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Count    int   `json:"count"`
		Events   []any `json:"events"`
		Segments struct {
			Scanned     int `json:"segments_scanned"`
			CacheHits   int `json:"cold_cache_hits"`
			CacheMisses int `json:"cold_cache_misses"`
		} `json:"segments"`
		Truncated bool `json:"truncated"`
	}
	// Unconstrained: the full cardinality, far past the 10000-page ceiling
	// logic, with zero events materialized.
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=0", &res); code != 200 {
		t.Fatalf("count query status = %d", code)
	}
	if res.Count != 500 || len(res.Events) != 0 || res.Truncated {
		t.Fatalf("count-only = %d events=%d truncated=%v, want 500/0/false", res.Count, len(res.Events), res.Truncated)
	}
	// Time-windowed count still takes the no-materialization path.
	u := ts.URL + "/api/warehouse/query?limit=0&from=" + url.QueryEscape("2016-03-15T00:10:00Z") +
		"&to=" + url.QueryEscape("2016-03-15T01:10:00Z")
	if code := getJSON(t, u, &res); code != 200 {
		t.Fatalf("windowed count status = %d", code)
	}
	if res.Count != 60 {
		t.Fatalf("windowed count = %d, want 60", res.Count)
	}
	// A condition forces evaluation but still returns no events.
	u = ts.URL + "/api/warehouse/query?limit=0&cond=" + url.QueryEscape("temperature > 19")
	if code := getJSON(t, u, &res); code != 200 {
		t.Fatalf("cond count status = %d", code)
	}
	if res.Count != 495 || len(res.Events) != 0 || res.Truncated {
		t.Fatalf("cond count = %d events=%d truncated=%v, want 495/0/false", res.Count, len(res.Events), res.Truncated)
	}
}

// TestWarehouseQueryCountOnlyCondCeiling: a conditioned count has to
// evaluate events, so it keeps the handler's 10000-event materialization
// ceiling and reports truncation past it rather than reading back the
// whole history.
func TestWarehouseQueryCountOnlyCondCeiling(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(10050)); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Count     int   `json:"count"`
		Events    []any `json:"events"`
		Truncated bool  `json:"truncated"`
	}
	// Temperatures are 15..10064: the three conditions match all 10050
	// events, exactly one past the ceiling, and exactly the ceiling.
	for _, tc := range []struct {
		cond      string
		truncated bool
	}{
		{"temperature > 0", true},
		{"temperature > 63", true},  // 10001 matches
		{"temperature > 64", false}, // 10000 matches
	} {
		u := ts.URL + "/api/warehouse/query?limit=0&cond=" + url.QueryEscape(tc.cond)
		if code := getJSON(t, u, &res); code != 200 {
			t.Fatalf("%s: status = %d", tc.cond, code)
		}
		if res.Count != 10000 || res.Truncated != tc.truncated || len(res.Events) != 0 {
			t.Fatalf("%s: count = %d truncated=%v events=%d, want 10000/%v/0",
				tc.cond, res.Count, res.Truncated, len(res.Events), tc.truncated)
		}
	}
	// Without a condition the count stays exact and unbounded.
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=0", &res); code != 200 {
		t.Fatal("bare count status")
	}
	if res.Count != 10050 || res.Truncated {
		t.Fatalf("bare count = %d truncated=%v, want 10050/false", res.Count, res.Truncated)
	}
}

// TestWarehouseQueryPagination pages a result set with offset/limit and
// checks the truncated flag and page boundaries.
func TestWarehouseQueryPagination(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(10)); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Count  int `json:"count"`
		Events []struct {
			Seq uint64 `json:"seq"`
		} `json:"events"`
		Offset    int  `json:"offset"`
		Truncated bool `json:"truncated"`
	}
	var seen []uint64
	for page := 0; page < 5; page++ {
		res.Events = nil
		u := ts.URL + "/api/warehouse/query?limit=4&offset=" + strconv.Itoa(page*4)
		if code := getJSON(t, u, &res); code != 200 {
			t.Fatalf("page %d status = %d", page, code)
		}
		if res.Offset != page*4 {
			t.Fatalf("page %d offset echoed as %d", page, res.Offset)
		}
		for _, ev := range res.Events {
			seen = append(seen, ev.Seq)
		}
		wantTruncated := page < 2 // 10 events in pages of 4: 4, 4, 2
		if res.Truncated != wantTruncated {
			t.Fatalf("page %d truncated = %v, want %v (count %d)", page, res.Truncated, wantTruncated, res.Count)
		}
		if !res.Truncated {
			break
		}
	}
	if len(seen) != 10 {
		t.Fatalf("paged through %d events, want 10", len(seen))
	}
	for i, seq := range seen {
		if seq != uint64(i) {
			t.Fatalf("page order broken: seen[%d] = %d", i, seq)
		}
	}

	// An offset past the end returns an empty, non-truncated page.
	res.Events = nil
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=4&offset=50", &res); code != 200 {
		t.Fatal("offset past end must succeed")
	}
	if res.Count != 0 || res.Truncated {
		t.Fatalf("past-end page: count=%d truncated=%v", res.Count, res.Truncated)
	}
}

// flushRecorder is a ResponseWriter that records how many response bytes
// had been written at each explicit Flush, so tests can prove a handler
// streamed incrementally instead of buffering to the end.
type flushRecorder struct {
	header     http.Header
	buf        bytes.Buffer
	status     int
	flushMarks []int
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{header: http.Header{}, status: http.StatusOK}
}

func (r *flushRecorder) Header() http.Header { return r.header }
func (r *flushRecorder) WriteHeader(code int) {
	r.status = code
}
func (r *flushRecorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
func (r *flushRecorder) Flush() {
	r.flushMarks = append(r.flushMarks, r.buf.Len())
}

// droppingWriter simulates a client that disconnects mid-stream: every
// write past failAfter bytes fails.
type droppingWriter struct {
	flushRecorder
	failAfter int
}

func (w *droppingWriter) Write(p []byte) (int, error) {
	if w.buf.Len() >= w.failAfter {
		return 0, errors.New("client gone")
	}
	return w.buf.Write(p)
}

// TestWarehouseQueryNDJSON: format=ndjson streams one event object per
// line, flushes before the response completes, and terminates with a
// summary line carrying the JSON envelope's fields.
func TestWarehouseQueryNDJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(300)); err != nil {
		t.Fatal(err)
	}
	rec := newFlushRecorder()
	req := httptest.NewRequest("GET", "/api/warehouse/query?format=ndjson&limit=200", nil)
	srv.Handler().ServeHTTP(rec, req)
	if rec.status != 200 {
		t.Fatalf("status = %d", rec.status)
	}
	if ct := rec.header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}
	// 200 event lines at 64 lines per flush: at least two flushes landed
	// strictly before the stream was complete.
	total := rec.buf.Len()
	early := 0
	for _, mark := range rec.flushMarks {
		if mark > 0 && mark < total {
			early++
		}
	}
	if early < 2 {
		t.Fatalf("flush marks %v: want >= 2 flushes before completion (total %d bytes)", rec.flushMarks, total)
	}

	sc := bufio.NewScanner(bytes.NewReader(rec.buf.Bytes()))
	var seqs []uint64
	sawSummary := false
	for sc.Scan() {
		line := sc.Text()
		if sawSummary {
			t.Fatal("lines after the summary")
		}
		var ev struct {
			Seq     *uint64 `json:"seq"`
			Event   map[string]any
			Summary *struct {
				Count     int  `json:"count"`
				Truncated bool `json:"truncated"`
			} `json:"summary"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("malformed NDJSON line %q: %v", line, err)
		}
		if ev.Summary != nil {
			sawSummary = true
			if ev.Summary.Count != 200 || !ev.Summary.Truncated {
				t.Fatalf("summary = %+v, want count 200 truncated", ev.Summary)
			}
			continue
		}
		if ev.Seq == nil || ev.Event == nil {
			t.Fatalf("event line missing seq/event: %q", line)
		}
		seqs = append(seqs, *ev.Seq)
	}
	if !sawSummary {
		t.Fatal("stream did not end with a summary line")
	}
	if len(seqs) != 200 {
		t.Fatalf("%d event lines, want 200", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("line %d seq = %d, out of order", i, seq)
		}
	}
}

// TestWarehouseQueryNDJSONCountOnly: limit=0 under ndjson is a single
// summary line.
func TestWarehouseQueryNDJSONCountOnly(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(50)); err != nil {
		t.Fatal(err)
	}
	rec := newFlushRecorder()
	req := httptest.NewRequest("GET", "/api/warehouse/query?format=ndjson&limit=0", nil)
	srv.Handler().ServeHTTP(rec, req)
	lines := strings.Split(strings.TrimSpace(rec.buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("count-only stream has %d lines, want 1", len(lines))
	}
	var line struct {
		Summary *struct {
			Count int `json:"count"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil || line.Summary == nil {
		t.Fatalf("bad summary line %q: %v", lines[0], err)
	}
	if line.Summary.Count != 50 {
		t.Fatalf("count = %d, want 50", line.Summary.Count)
	}
}

// TestWarehouseQueryNDJSONDisconnect: a client vanishing mid-stream must
// not wedge or panic the handler — it just stops writing.
func TestWarehouseQueryNDJSONDisconnect(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(500)); err != nil {
		t.Fatal(err)
	}
	rec := &droppingWriter{flushRecorder: *newFlushRecorder(), failAfter: 2048}
	req := httptest.NewRequest("GET", "/api/warehouse/query?format=ndjson&limit=500", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler wedged after client disconnect")
	}
	if strings.Contains(rec.buf.String(), `"summary"`) {
		t.Fatal("summary written despite disconnect")
	}
}

// TestWarehouseQueryClientGone: the handlers hand the request context to
// the warehouse, so a request whose client already left stops before its
// first segment and is answered 499, not counted as a server fault.
func TestWarehouseQueryClientGone(t *testing.T) {
	srv, _ := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(10)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{
		"/api/warehouse/query",
		"/api/warehouse/query?limit=0",
		"/api/warehouse/aggregate?func=count",
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(ctx))
		if rec.Code != 499 {
			t.Errorf("%s: status = %d, want 499", path, rec.Code)
		}
	}
}

func TestWarehouseQueryBadFormat(t *testing.T) {
	_, ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/api/warehouse/query?format=xml", nil); code != 400 {
		t.Fatalf("format=xml status = %d, want 400", code)
	}
}

// TestWarehouseQueryPagingEdges: offset landing exactly on the end, and
// limit=0 combined with offset, keep the truncated flag honest.
func TestWarehouseQueryPagingEdges(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(8)); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Count     int   `json:"count"`
		Events    []any `json:"events"`
		Truncated bool  `json:"truncated"`
		Offset    int   `json:"offset"`
	}
	// Offset exactly at the end: empty page, not truncated.
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=4&offset=8", &res); code != 200 {
		t.Fatal("offset at end must succeed")
	}
	if res.Count != 0 || res.Truncated {
		t.Fatalf("page at end: %+v", res)
	}
	// Last full page: present, not truncated.
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=4&offset=4", &res); code != 200 {
		t.Fatal("last page must succeed")
	}
	if res.Count != 4 || res.Truncated {
		t.Fatalf("last page: %+v", res)
	}
	// limit=0 ignores offset entirely (count-only) and echoes offset 0.
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=0&offset=5", &res); code != 200 {
		t.Fatal("count-only with offset must succeed")
	}
	if res.Count != 8 || res.Offset != 0 || res.Truncated {
		t.Fatalf("count-only with offset: %+v", res)
	}
	// limit=0 with a cond keeps the count exact under the ceiling.
	u := ts.URL + "/api/warehouse/query?limit=0&offset=3&cond=" + url.QueryEscape("temperature > 16")
	if code := getJSON(t, u, &res); code != 200 {
		t.Fatal("cond count with offset must succeed")
	}
	if res.Count != 6 || res.Truncated {
		t.Fatalf("cond count with offset: %+v", res)
	}
}

// TestWarehouseQueryOffsetOverflow: an offset near the int range must not
// wrap offset+limit past the paging ceiling. It is refused with the same 400
// as any page too deep, not read as an uncapped select that then slices out
// of bounds and drops the connection.
func TestWarehouseQueryOffsetOverflow(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(8)); err != nil {
		t.Fatal(err)
	}
	for _, offset := range []string{"9223372036854775807", "9223372036854775708", "10001"} {
		var res struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=100&offset="+offset, &res); code != 400 {
			t.Errorf("offset=%s: status = %d, want 400", offset, code)
		}
		if !strings.Contains(res.Error, "page too deep") {
			t.Errorf("offset=%s: error = %q", offset, res.Error)
		}
	}
}

// TestWarehouseStatsExposesDurability checks the durable-mode counters
// ride the stats payload.
func TestWarehouseStatsExposesDurability(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(10)); err != nil {
		t.Fatal(err)
	}
	var st struct {
		Events          int    `json:"events"`
		SegmentsSpilled uint64 `json:"segments_spilled"`
		WALBytes        *int64 `json:"wal_bytes"`
		DiskBytes       *int64 `json:"disk_bytes"`
		Recovered       *int64 `json:"recovered_events"`
	}
	if code := getJSON(t, ts.URL+"/api/warehouse/stats", &st); code != 200 {
		t.Fatal("stats status")
	}
	if st.Events != 10 {
		t.Fatalf("events = %d", st.Events)
	}
	// The test server's warehouse is in-memory: the fields must be present
	// (not omitted) and zero.
	if st.WALBytes == nil || st.DiskBytes == nil || st.Recovered == nil {
		t.Fatal("durability fields missing from stats payload")
	}
	if *st.WALBytes != 0 || *st.DiskBytes != 0 || st.SegmentsSpilled != 0 {
		t.Fatalf("in-memory warehouse reports disk usage: %+v", st)
	}
}

// TestQueryPagesConcurrent serves pages from several goroutines at once, so
// pooled page encoders pass from request to request with what they
// remember: every JSON and NDJSON page must still be the map-based
// rendering.
func TestQueryPagesConcurrent(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(goldenTuples(400)); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, format := range []string{"json", "ndjson"} {
		for _, limit := range []int{7, 400} {
			evs, qs, err := srv.Warehouse.Select(context.Background(), warehouse.Query{Limit: limit + 1})
			if err != nil {
				t.Fatal(err)
			}
			truncated := len(evs) > limit
			evs = evs[:min(limit, len(evs))]
			u := ts.URL + "/api/warehouse/query?format=" + format + "&limit=" + strconv.Itoa(limit)
			want[u] = referenceQueryBody(t, format, evs, 0, truncated, qs, nil)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for u, body := range want {
					resp, err := http.Get(u)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || !bytes.Equal(got, body) {
						t.Errorf("%s: page differs from the map-based rendering (read error %v)", u, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
