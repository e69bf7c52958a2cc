package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/warehouse"
)

// viewUpdateView and aggRowView are the structs encoding/json rendered a
// subscription frame from before the frames were appended by hand. They
// stay here as what the tests decode frames into and as the oracle the
// appended bytes must equal.
type viewUpdateView struct {
	Version    uint64       `json:"version"`
	Rows       []aggRowView `json:"rows"`
	Resnapshot bool         `json:"resnapshot,omitempty"`
	Shed       uint64       `json:"shed,omitempty"`
	Error      string       `json:"error,omitempty"`
}

type aggRowView struct {
	Bucket string  `json:"bucket,omitempty"`
	Source string  `json:"source,omitempty"`
	Theme  string  `json:"theme,omitempty"`
	Count  int64   `json:"count"`
	Value  float64 `json:"value"`
}

// oracleFrame renders u as the handler did through encoding/json.
func oracleFrame(t *testing.T, u warehouse.ViewUpdate, bucketed, sse bool) []byte {
	t.Helper()
	uv := viewUpdateView{Version: u.Version, Rows: []aggRowView{}, Resnapshot: u.Resnapshot, Shed: u.Shed}
	for _, row := range u.Rows {
		v := aggRowView{Source: row.Source, Theme: row.Theme, Count: row.Count, Value: row.Value}
		if bucketed {
			v.Bucket = row.Bucket.UTC().Format(time.RFC3339Nano)
		}
		uv.Rows = append(uv.Rows, v)
	}
	if u.Err != nil {
		uv.Error = u.Err.Error()
	}
	if !sse {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(uv); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	event := "update"
	switch {
	case u.Err != nil:
		event = "error"
	case u.Resnapshot:
		event = "snapshot"
	}
	data, err := json.Marshal(uv)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
}

// TestSubscribeFrameBytes: a frame appended by hand is byte for byte the
// frame encoding/json wrote, in both framings, for bucketed and unbucketed
// rows, with every optional member set and unset, the error frame included.
func TestSubscribeFrameBytes(t *testing.T) {
	jst := time.FixedZone("JST", 9*3600)
	rows := []warehouse.AggRow{
		{Bucket: time.Date(2016, 3, 15, 9, 0, 0, 0, time.UTC), Source: "temperature-1", Theme: "weather", Count: 3, Value: 21.5},
		{Bucket: time.Date(2016, 3, 15, 18, 0, 10, 123456789, jst), Source: `a"b\c<d>&e`, Count: 1, Value: -0.000000123},
		{Bucket: time.Date(2016, 3, 15, 9, 0, 20, 0, time.UTC), Theme: "caf\u00e9\u2028\x01\xff", Count: math.MaxInt64, Value: 1e21},
		{Count: 0, Value: 0},
		{Source: "s", Count: -1, Value: 123456789.125},
	}
	updates := []warehouse.ViewUpdate{
		{Version: 1, Rows: rows, Resnapshot: true},
		{Version: 2, Rows: rows[:1]},
		{Version: math.MaxUint64, Rows: rows, Shed: 7, Resnapshot: true},
		{Version: 4, Rows: nil},
		{Version: 5, Err: errors.New(`scan failed: "disk" <gone>`)},
		{Version: 6, Err: errors.New("closed"), Resnapshot: true, Shed: 1},
	}
	for _, bucketed := range []bool{false, true} {
		for _, sse := range []bool{false, true} {
			for _, u := range updates {
				want := oracleFrame(t, u, bucketed, sse)
				if u.Err == nil { // the terminal update carries no rows, as the view sends it
					u.RowsJSON = warehouse.AppendAggRowsJSON(nil, u.Rows, bucketed)
				}
				got := appendSubscribeFrame(nil, &u, sse)
				if !bytes.Equal(got, want) {
					t.Errorf("bucketed=%t sse=%t version %d:\n got %q\nwant %q", bucketed, sse, u.Version, got, want)
				}
			}
		}
	}
}

// TestSubscribeFrameNonFinite: a NaN or ±Inf aggregate, which encoding/json
// refused (the stream just ended), is null — the decision the event wire
// form made for stored values.
func TestSubscribeFrameNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rows := []warehouse.AggRow{{Source: "s", Count: 2, Value: v}}
		u := warehouse.ViewUpdate{Version: 1, Rows: rows, RowsJSON: warehouse.AppendAggRowsJSON(nil, rows, false)}
		got := appendSubscribeFrame(nil, &u, false)
		want := `{"version":1,"rows":[{"source":"s","count":2,"value":null}]}` + "\n"
		if string(got) != want {
			t.Errorf("value %v: got %q, want %q", v, got, want)
		}
	}
}

// TestSubscribeWireMatchesAggregate: what the handler puts on the wire, in
// both framings, is what encoding/json writes for the same update, and its
// rows are the rows the one-shot aggregate endpoint returns for the query.
func TestSubscribeWireMatchesAggregate(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Warehouse.AppendBatch(queryTuples(90)); err != nil {
		t.Fatal(err)
	}
	const q = "func=avg&field=temperature&group=source,theme&bucket=30m"
	var pulled struct {
		Rows json.RawMessage `json:"rows"`
	}
	if code := getJSON(t, ts.URL+"/api/warehouse/aggregate?"+q, &pulled); code != 200 {
		t.Fatalf("aggregate = %d", code)
	}
	for _, format := range []string{"sse", "ndjson"} {
		resp := subscribeStream(t, ts.URL+"/api/warehouse/subscribe?"+q+"&format="+format)
		rd := bufio.NewReader(resp.Body)
		var raw []byte
		for {
			line, err := rd.ReadBytes('\n')
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			raw = append(raw, line...)
			if format == "ndjson" || bytes.HasSuffix(raw, []byte("\n\n")) {
				break
			}
		}
		resp.Body.Close()
		data := strings.TrimPrefix(strings.TrimSpace(string(raw)), "event: snapshot\ndata: ")
		var uv viewUpdateView
		if err := json.Unmarshal([]byte(data), &uv); err != nil {
			t.Fatalf("%s: bad frame %q: %v", format, raw, err)
		}
		if len(uv.Rows) != 3 || !uv.Resnapshot {
			t.Fatalf("%s: first frame = %+v, want a snapshot of 3 buckets", format, uv)
		}
		again, err := json.Marshal(uv)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != data {
			t.Errorf("%s: frame is not what encoding/json writes:\n got %s\nwant %s", format, data, again)
		}
		if rows, _ := json.Marshal(uv.Rows); string(rows) != string(pulled.Rows) {
			t.Errorf("%s: pushed rows %s differ from pulled rows %s", format, rows, pulled.Rows)
		}
	}
}

// BenchmarkSubscribeFanout: one event-policy view, 64 subscribers, and per
// iteration one event appended and its update awaited — the frame rate of a
// live stream since the sink flushes per live event. Every subscriber
// renders every frame it receives as the HTTP handler does; the rows inside
// must have been encoded at most once per update, however many subscribers
// the update went to.
func BenchmarkSubscribeFanout(b *testing.B) {
	const subscribers = 64
	wh := warehouse.New()
	aq := warehouse.AggQuery{Func: ops.AggCount, GroupBy: []string{"source"}}
	subscribe := func() *warehouse.Subscription {
		sub, err := wh.Subscribe(aq, warehouse.SubscribeOptions{Buffer: subscriberBuffer})
		if err != nil {
			b.Fatal(err)
		}
		return sub
	}
	var frames, frameBytes atomic.Int64
	render := func(frame []byte, u *warehouse.ViewUpdate, sse bool) []byte {
		frame = appendSubscribeFrame(frame[:0], u, sse)
		frames.Add(1)
		frameBytes.Add(int64(len(frame)))
		return frame
	}
	var wg sync.WaitGroup
	for i := 1; i < subscribers; i++ {
		sub := subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var frame []byte
			for u := range sub.Updates() {
				frame = render(frame, &u, i%2 == 0)
			}
		}()
	}
	pacer := subscribe() // the 64th, read here: an iteration ends when its update arrives
	var frame []byte
	tup := queryTuples(1)[0]
	var last warehouse.ViewUpdate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wh.Append(tup); err != nil {
			b.Fatal(err)
		}
		for len(last.Rows) == 0 || last.Rows[0].Count <= int64(i) {
			last = <-pacer.Updates()
			frame = render(frame, &last, false)
		}
	}
	b.StopTimer()
	// Every snapshot took one version, the 64 first frames included.
	updates, encodes := last.Version, wh.Stats().ViewEncodes
	if encodes > updates {
		b.Fatalf("%d row encodes for %d updates: more than one per update", encodes, updates)
	}
	pacer.Close()
	wh.Close() // closes the other subscriptions' channels
	wg.Wait()
	b.ReportMetric(float64(frames.Load())/float64(encodes), "frames/encode")
	b.ReportMetric(float64(frameBytes.Load())/float64(b.N), "frame-B/op")
}
