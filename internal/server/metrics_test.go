package server

import (
	"bufio"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamloader/internal/obs"
)

// requiredFamilies is the metric contract of the process: every family here
// must be present in a scrape of a freshly started instrumented server,
// traffic or no traffic. The CI smoke asserts the same list through
// `slctl metrics -require`.
var requiredFamilies = []string{
	"streamloader_warehouse_append_seconds",
	"streamloader_warehouse_select_seconds",
	"streamloader_warehouse_aggregate_seconds",
	"streamloader_wal_write_seconds",
	"streamloader_wal_fsync_seconds",
	"streamloader_cold_read_seconds",
	"streamloader_spill_seconds",
	"streamloader_compaction_seconds",
	"streamloader_warehouse_retention_cut_seconds",
	"streamloader_view_rebuild_seconds",
	"streamloader_view_publish_seconds",
	"streamloader_warehouse_events",
	"streamloader_warehouse_segments",
	"streamloader_sink_flushes_total",
	"streamloader_sink_watermark_lag_seconds",
	"streamloader_source_barrier_waits_total",
}

func scrapeMetrics(t *testing.T, base string) []obs.Series {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	series, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return series
}

func TestMetricsExposition(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(50)); err != nil {
		t.Fatal(err)
	}
	// Generate query, aggregate, and HTTP traffic, plus one scrape so the
	// lazily created per-route HTTP series exist on the second scrape.
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=5", nil); code != 200 {
		t.Fatalf("query status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/warehouse/aggregate?func=count", nil); code != 200 {
		t.Fatalf("aggregate status = %d", code)
	}
	scrapeMetrics(t, ts.URL)
	series := scrapeMetrics(t, ts.URL)

	present := map[string]bool{}
	for _, s := range series {
		present[s.Name] = true
		present[strings.TrimSuffix(s.Name, "_bucket")] = true
	}
	for _, fam := range requiredFamilies {
		if !present[fam] {
			t.Errorf("required family %s missing from scrape", fam)
		}
	}
	if !present["streamloader_http_request_seconds"] || !present["streamloader_http_requests_total"] {
		t.Error("HTTP middleware series missing after traffic")
	}

	// The warehouse collector reports through the same Stats() the JSON
	// endpoint uses; the event gauge must equal what was appended.
	for _, s := range series {
		if s.Name == "streamloader_warehouse_events" && s.Value != 50 {
			t.Errorf("streamloader_warehouse_events = %v, want 50", s.Value)
		}
	}

	checkHistogramShape(t, series)

	// Routes must come from mux patterns, not raw URLs: no query strings in
	// route labels, and the query endpoint's pattern appears verbatim.
	sawQueryRoute := false
	for _, s := range series {
		if route, ok := s.Labels["route"]; ok {
			if strings.Contains(route, "?") || strings.Contains(route, "limit") {
				t.Errorf("route label %q leaks the raw URL", route)
			}
			if strings.Contains(route, "/api/warehouse/query") {
				sawQueryRoute = true
			}
		}
	}
	if !sawQueryRoute {
		t.Error("no route label for the query endpoint")
	}
}

// checkHistogramShape verifies the exposition's histogram series are
// well-formed: per family and label set, buckets are cumulative and
// non-decreasing in ascending le order, an +Inf bucket exists, and _count
// equals the +Inf bucket.
func checkHistogramShape(t *testing.T, series []obs.Series) {
	t.Helper()
	type bucket struct {
		le  string
		val float64
	}
	buckets := map[string][]bucket{}
	counts := map[string]float64{}
	sums := map[string]bool{}
	for _, s := range series {
		if strings.HasSuffix(s.Name, "_bucket") {
			le := s.Labels["le"]
			if le == "" {
				t.Errorf("%s: bucket series without le label", s.Name)
				continue
			}
			key := groupKey(s, strings.TrimSuffix(s.Name, "_bucket"))
			buckets[key] = append(buckets[key], bucket{le: le, val: s.Value})
		}
		if base, ok := strings.CutSuffix(s.Name, "_count"); ok {
			counts[groupKey(s, base)] = s.Value
		}
		if base, ok := strings.CutSuffix(s.Name, "_sum"); ok {
			sums[groupKey(s, base)] = true
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram families in scrape")
	}
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return leValue(bs[i].le) < leValue(bs[j].le) })
		if bs[len(bs)-1].le != "+Inf" {
			t.Errorf("%s: last bucket le = %q, want +Inf", key, bs[len(bs)-1].le)
			continue
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].val < bs[i-1].val {
				t.Errorf("%s: cumulative buckets decrease at le=%s", key, bs[i].le)
			}
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("%s: missing _count series", key)
		} else if cnt != bs[len(bs)-1].val {
			t.Errorf("%s: _count %v != +Inf bucket %v", key, cnt, bs[len(bs)-1].val)
		}
		if !sums[key] {
			t.Errorf("%s: missing _sum series", key)
		}
	}
}

func groupKey(s obs.Series, base string) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(base)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.Labels[k])
	}
	return b.String()
}

func leValue(le string) float64 {
	if le == "+Inf" {
		return 1e308
	}
	v, _ := strconv.ParseFloat(le, 64)
	return v
}

type spanJSON struct {
	Name    string           `json:"name"`
	StartUS int64            `json:"start_us"`
	DurUS   int64            `json:"dur_us"`
	Attrs   map[string]int64 `json:"attrs"`
}

type traceJSON struct {
	Name  string     `json:"name"`
	DurUS int64      `json:"dur_us"`
	Spans []spanJSON `json:"spans"`
}

// checkTrace asserts a ?trace=1 report is well-formed: named, non-negative
// timings, spans sorted by start, at least one per-shard span carrying its
// shard index, and exactly one merge span.
func checkTrace(t *testing.T, tr traceJSON, name string) {
	t.Helper()
	if tr.Name != name {
		t.Errorf("trace name = %q, want %q", tr.Name, name)
	}
	if tr.DurUS < 0 {
		t.Errorf("trace dur_us = %d", tr.DurUS)
	}
	shards, merges := 0, 0
	lastStart := int64(-1)
	for _, sp := range tr.Spans {
		if sp.Name == "" || sp.StartUS < 0 || sp.DurUS < 0 {
			t.Errorf("malformed span %+v", sp)
		}
		if sp.StartUS < lastStart {
			t.Error("spans not sorted by start time")
		}
		lastStart = sp.StartUS
		switch sp.Name {
		case "shard":
			shards++
			if _, ok := sp.Attrs["shard"]; !ok {
				t.Errorf("shard span without shard attr: %+v", sp)
			}
			if _, ok := sp.Attrs["events"]; !ok {
				t.Errorf("shard span without events attr: %+v", sp)
			}
		case "merge":
			merges++
		}
	}
	if shards == 0 {
		t.Error("no per-shard spans in trace")
	}
	if merges != 1 {
		t.Errorf("merge spans = %d, want 1", merges)
	}
}

func TestQueryTraceSpans(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(20)); err != nil {
		t.Fatal(err)
	}

	var res struct {
		Count int        `json:"count"`
		Trace *traceJSON `json:"trace"`
	}
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=5&trace=1", &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if res.Trace == nil {
		t.Fatal("no trace key with ?trace=1")
	}
	checkTrace(t, *res.Trace, "warehouse_query")

	// Without ?trace=1 the response must not carry a trace.
	res.Trace = nil
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=5", &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if res.Trace != nil {
		t.Error("trace key present without ?trace=1")
	}

	// NDJSON: the terminating summary line carries the trace.
	sum := lastNDJSONSummary(t, ts.URL+"/api/warehouse/query?limit=5&format=ndjson&trace=1")
	if sum.Trace == nil {
		t.Fatal("ndjson summary has no trace")
	}
	checkTrace(t, *sum.Trace, "warehouse_query")

	// Count-only path (limit=0) traces too.
	var cres struct {
		Count int        `json:"count"`
		Trace *traceJSON `json:"trace"`
	}
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=0&trace=1", &cres); code != 200 {
		t.Fatalf("count status = %d", code)
	}
	if cres.Trace == nil {
		t.Fatal("no trace on count-only query")
	}
}

func TestAggregateTraceSpans(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(20)); err != nil {
		t.Fatal(err)
	}

	var res struct {
		Rows  json.RawMessage `json:"rows"`
		Trace *traceJSON      `json:"trace"`
	}
	u := ts.URL + "/api/warehouse/aggregate?func=avg&field=temperature&group=source&trace=1"
	if code := getJSON(t, u, &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if res.Trace == nil {
		t.Fatal("no trace key with ?trace=1")
	}
	checkTrace(t, *res.Trace, "warehouse_aggregate")

	res.Trace = nil
	if code := getJSON(t, ts.URL+"/api/warehouse/aggregate?func=count", &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if res.Trace != nil {
		t.Error("trace key present without ?trace=1")
	}

	sum := lastNDJSONSummary(t, u+"&format=ndjson")
	if sum.Trace == nil {
		t.Fatal("ndjson summary has no trace")
	}
	checkTrace(t, *sum.Trace, "warehouse_aggregate")
}

// TestQueryTraceEncodeSpan checks the select trace's encode span: one per
// page, on the JSON and the NDJSON path alike, carrying the page's events,
// their bytes, and six values formatted or copied per event (a reading and
// five coordinates).
func TestQueryTraceEncodeSpan(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(20)); err != nil {
		t.Fatal(err)
	}
	encodeSpan := func(tr *traceJSON) spanJSON {
		t.Helper()
		var found []spanJSON
		for _, sp := range tr.Spans {
			if sp.Name == "encode" {
				found = append(found, sp)
			}
		}
		if len(found) != 1 {
			t.Fatalf("encode spans = %d, want 1", len(found))
		}
		sp := found[0]
		if sp.Attrs["events"] != 7 {
			t.Errorf("encode span events = %d, want 7", sp.Attrs["events"])
		}
		if n := sp.Attrs["values_formatted"] + sp.Attrs["values_copied"]; n != 6*7 {
			t.Errorf("encode span values = %d formatted + %d copied, want %d in all",
				sp.Attrs["values_formatted"], sp.Attrs["values_copied"], 6*7)
		}
		return sp
	}
	var res struct {
		Trace *traceJSON `json:"trace"`
	}
	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=7&trace=1", &res); code != 200 || res.Trace == nil {
		t.Fatalf("status = %d, trace %v", code, res.Trace)
	}
	page := encodeSpan(res.Trace)
	sum := lastNDJSONSummary(t, ts.URL+"/api/warehouse/query?limit=7&format=ndjson&trace=1")
	if sum.Trace == nil {
		t.Fatal("ndjson summary has no trace")
	}
	lines := encodeSpan(sum.Trace)
	if page.Attrs["bytes"] <= 0 || page.Attrs["bytes"] != lines.Attrs["bytes"] {
		t.Errorf("encode span bytes = %d on the JSON page, %d on NDJSON; want the same, non-zero",
			page.Attrs["bytes"], lines.Attrs["bytes"])
	}
}

// lastNDJSONSummary reads an NDJSON response and decodes its terminating
// {"summary": ...} line.
func lastNDJSONSummary(t *testing.T, url string) (sum struct {
	Trace *traceJSON `json:"trace"`
}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	var last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var wrapper struct {
		Summary json.RawMessage `json:"summary"`
	}
	if err := json.Unmarshal([]byte(last), &wrapper); err != nil || wrapper.Summary == nil {
		t.Fatalf("last ndjson line is not a summary: %q", last)
	}
	if err := json.Unmarshal(wrapper.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// syncWriter lets the test read log output the handler goroutine wrote.
type syncWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestSlowQueryLog(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(20)); err != nil {
		t.Fatal(err)
	}
	srv.SlowQuery = time.Nanosecond // everything is slow

	var w syncWriter
	prev := log.Writer()
	log.SetOutput(&w)
	defer log.SetOutput(prev)

	if code := getJSON(t, ts.URL+"/api/warehouse/query?limit=5", nil); code != 200 {
		t.Fatalf("status = %d", code)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(w.String(), "slow query:") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	out := w.String()
	if !strings.Contains(out, "slow query:") {
		t.Fatalf("no slow-query log line; log output: %q", out)
	}
	if !strings.Contains(out, `"name":"shard"`) {
		t.Errorf("slow-query line lacks span breakdown: %q", out)
	}

	series := scrapeMetrics(t, ts.URL)
	found := false
	for _, s := range series {
		if s.Name == "streamloader_slow_queries_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("streamloader_slow_queries_total did not count the offender")
	}
}

// TestMetricsAfterNDJSONStreaming pins the middleware invariant that
// wrapping must not hide http.Flusher: an NDJSON stream through the
// instrumented mux still arrives incrementally (chunked), and the request
// is still counted.
func TestMetricsAfterNDJSONStreaming(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(10)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/warehouse/query?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(string(body)), "\n") + 1; n != 11 {
		t.Fatalf("ndjson lines = %d, want 10 events + summary", n)
	}
	series := scrapeMetrics(t, ts.URL)
	counted := false
	for _, s := range series {
		if s.Name == "streamloader_http_requests_total" &&
			strings.Contains(s.Labels["route"], "/api/warehouse/query") &&
			s.Labels["code"] == "200" && s.Value >= 1 {
			counted = true
		}
	}
	if !counted {
		t.Error("ndjson request not counted by route/code")
	}
}
