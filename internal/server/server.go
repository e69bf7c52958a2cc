// Package server is the Web application of StreamLoader (paper Figure 2):
// the JSON HTTP API the visual environment is a front-end for — sensor
// discovery, dataflow creation and validation, sample-based debugging,
// DSN/SCN translation, deployment, live monitoring — plus a small embedded
// dashboard. The paper's AngularJS/Cytoscape/SparkJava stack is replaced by
// net/http and vanilla HTML per DESIGN.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/obs"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stt"
	"streamloader/internal/viz"
	"streamloader/internal/warehouse"
)

// Server wires the StreamLoader subsystems behind the HTTP API.
type Server struct {
	Network   *network.Network
	Broker    *pubsub.Broker
	Executor  *executor.Executor
	Monitor   *monitor.Monitor
	Warehouse *warehouse.Warehouse
	Board     *viz.Board
	Sensors   map[string]*sensor.Sensor

	// AggMaxGroups caps the group cardinality one /api/warehouse/aggregate
	// call may return (0 = the warehouse default).
	AggMaxGroups int

	// MaxSubscribers caps the live /api/warehouse/subscribe clients across
	// all views (0 = DefaultMaxSubscribers).
	MaxSubscribers int

	// Obs is the process metrics registry, served at GET /metrics and fed
	// by the HTTP middleware. New inherits the warehouse's registry when it
	// has one, so warehouse, monitor and HTTP series share one exposition.
	Obs *obs.Registry

	// SlowQuery, when positive, logs any warehouse query or aggregate
	// slower than the threshold, once per offending request, with its span
	// breakdown.
	SlowQuery time.Duration

	mu          sync.Mutex
	specs       map[string]*dataflow.Spec
	deployments map[string]*executor.Deployment
	runs        map[string]chan error
}

// New assembles a server over existing subsystems. The metrics registry is
// adopted from the warehouse when it has one (so its histograms and the
// HTTP series expose together) and created fresh otherwise; the monitor's
// Figure-3 rates and the executor's sink series register into the same
// registry.
func New(net *network.Network, broker *pubsub.Broker, exec *executor.Executor,
	mon *monitor.Monitor, wh *warehouse.Warehouse, board *viz.Board,
	sensors map[string]*sensor.Sensor) *Server {
	s := &Server{
		Network: net, Broker: broker, Executor: exec, Monitor: mon,
		Warehouse: wh, Board: board, Sensors: sensors,
		specs:       map[string]*dataflow.Spec{},
		deployments: map[string]*executor.Deployment{},
		runs:        map[string]chan error{},
	}
	if wh != nil {
		s.Obs = wh.Obs()
	}
	if s.Obs == nil {
		s.Obs = obs.NewRegistry()
	}
	mon.RegisterMetrics(s.Obs)
	exec.RegisterMetrics(s.Obs)
	return s
}

// Handler builds the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/sensors", s.handleSensors)
	mux.HandleFunc("GET /api/sensors/groups", s.handleSensorGroups)
	mux.HandleFunc("GET /api/builtins", s.handleBuiltins)
	mux.HandleFunc("POST /api/dataflows", s.handleCreateDataflow)
	mux.HandleFunc("GET /api/dataflows", s.handleListDataflows)
	mux.HandleFunc("GET /api/dataflows/{name}", s.handleGetDataflow)
	mux.HandleFunc("POST /api/dataflows/{name}/validate", s.handleValidate)
	mux.HandleFunc("POST /api/dataflows/{name}/sample", s.handleSample)
	mux.HandleFunc("GET /api/dataflows/{name}/dsn", s.handleDSN)
	mux.HandleFunc("POST /api/dataflows/{name}/deploy", s.handleDeploy)
	mux.HandleFunc("GET /api/dataflows/{name}/scn", s.handleSCN)
	mux.HandleFunc("POST /api/dataflows/{name}/start", s.handleStart)
	mux.HandleFunc("POST /api/dataflows/{name}/stop", s.handleStop)
	mux.HandleFunc("GET /api/dataflows/{name}/stats", s.handleStats)
	mux.HandleFunc("GET /api/network", s.handleNetwork)
	mux.HandleFunc("GET /api/events", s.handleEvents)
	mux.HandleFunc("GET /api/warehouse/stats", s.handleWarehouseStats)
	mux.HandleFunc("GET /api/warehouse/query", s.handleWarehouseQuery)
	mux.HandleFunc("GET /api/warehouse/aggregate", s.handleWarehouseAggregate)
	mux.HandleFunc("GET /api/warehouse/subscribe", s.handleWarehouseSubscribe)
	mux.HandleFunc("GET /api/viz", s.handleViz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /", s.handleIndex)
	return s.instrument(mux)
}

// writeJSON sends v as one JSON document. It encodes before it commits the
// status, so a value encoding/json refuses (a NaN in an aggregate row, say)
// becomes a logged 500 instead of the requested status over an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Printf("encode %T response: %v", v, err)
		status = http.StatusInternalServerError
		// A map of strings always encodes.
		body, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n')) // a failed write is a client that left
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSensors lists published sensors, filterable by type/theme/active —
// the P1 "identify the different sensors that are currently available".
func (s *Server) handleSensors(w http.ResponseWriter, r *http.Request) {
	q := pubsub.Query{
		Type:       r.URL.Query().Get("type"),
		Theme:      r.URL.Query().Get("theme"),
		ActiveOnly: r.URL.Query().Get("active") == "true",
	}
	metas := s.Broker.Discover(q)
	type sensorView struct {
		pubsub.SensorMeta
		Schema string `json:"schema"`
		Active bool   `json:"active"`
	}
	out := make([]sensorView, 0, len(metas))
	for _, m := range metas {
		out = append(out, sensorView{
			SensorMeta: m,
			Schema:     m.Schema.String(),
			Active:     s.Broker.IsActive(m.ID),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSensorGroups organizes sensors by a criterion (type/node/theme/region).
func (s *Server) handleSensorGroups(w http.ResponseWriter, r *http.Request) {
	by := r.URL.Query().Get("by")
	if by == "" {
		by = "type"
	}
	groups, err := s.Broker.GroupBy(by, pubsub.Query{})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := map[string][]string{}
	for k, metas := range groups {
		for _, m := range metas {
			out[k] = append(out[k], m.ID)
		}
		sort.Strings(out[k])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleBuiltins lists the expression-language functions for the UI editor.
func (s *Server) handleBuiltins(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"functions": exprBuiltins()})
}

func (s *Server) handleCreateDataflow(w http.ResponseWriter, r *http.Request) {
	var spec dataflow.Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if spec.Name == "" {
		writeError(w, http.StatusBadRequest, "spec needs a name")
		return
	}
	s.mu.Lock()
	s.specs[spec.Name] = &spec
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"name": spec.Name})
}

func (s *Server) handleListDataflows(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.specs))
	for name := range s.specs {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

func (s *Server) spec(name string) (*dataflow.Spec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec, ok := s.specs[name]
	return spec, ok
}

func (s *Server) handleGetDataflow(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.spec(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataflow")
		return
	}
	writeJSON(w, http.StatusOK, spec)
}

func (s *Server) resolver() dataflow.SensorResolver {
	return dataflow.ResolverFunc(func(id string) (*stt.Schema, bool) {
		if meta, ok := s.Broker.Get(id); ok {
			return meta.Schema, true
		}
		return nil, false
	})
}

func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.spec(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataflow")
		return
	}
	diags := dataflow.Validate(spec, s.resolver())
	writeJSON(w, http.StatusOK, map[string]any{
		"valid":       !diags.HasErrors(),
		"diagnostics": diags,
	})
}

// handleSample runs the P1 sample debugger: n readings per source through
// the dataflow, returning every node's output sample.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.spec(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataflow")
		return
	}
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 || parsed > 1000 {
			writeError(w, http.StatusBadRequest, "n must be 1..1000")
			return
		}
		n = parsed
	}
	plan, diags := dataflow.Compile(spec, s.resolver(), s.Broker, nil)
	if diags.HasErrors() {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{"diagnostics": diags})
		return
	}
	// Generate fresh samples from each bound sensor.
	samples := map[string][]*stt.Tuple{}
	start := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	for _, pn := range plan.Nodes {
		if pn.SensorID == "" {
			continue
		}
		gen, ok := s.Sensors[pn.SensorID]
		if !ok {
			continue
		}
		sampler, err := sensor.New(sampleSpecOf(gen, pn.SensorID))
		if err != nil {
			continue
		}
		var tuples []*stt.Tuple
		ts := start
		for i := 0; i < n; i++ {
			tuples = append(tuples, sampler.At(ts))
			ts = ts.Add(sampler.Period())
		}
		samples[pn.ID] = tuples
	}
	res, err := dataflow.Debug(plan, samples)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res.Outputs)
}

func (s *Server) handleDSN(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.spec(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataflow")
		return
	}
	text, err := translate(spec, s.resolver(), s.Broker)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	spec, ok := s.spec(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataflow")
		return
	}
	s.mu.Lock()
	_, exists := s.deployments[name]
	s.mu.Unlock()
	if exists {
		writeError(w, http.StatusConflict, "dataflow already deployed")
		return
	}
	d, err := s.Executor.Deploy(spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	s.mu.Lock()
	s.deployments[name] = d
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"placement": d.Placement(),
		"scn":       d.SCNScript(),
	})
}

func (s *Server) deployment(name string) (*executor.Deployment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.deployments[name]
	return d, ok
}

func (s *Server) handleSCN(w http.ResponseWriter, r *http.Request) {
	d, ok := s.deployment(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "dataflow not deployed")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, d.SCNScript())
}

// handleStart launches a run over an event-time range. Body (optional):
// {"from": RFC3339, "to": RFC3339}. Defaults: now .. now+1h.
func (s *Server) handleStart(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.deployment(name)
	if !ok {
		writeError(w, http.StatusNotFound, "dataflow not deployed")
		return
	}
	var body struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	_ = json.NewDecoder(r.Body).Decode(&body)
	from := time.Now().UTC()
	to := from.Add(time.Hour)
	var err error
	if body.From != "" {
		if from, err = time.Parse(time.RFC3339, body.From); err != nil {
			writeError(w, http.StatusBadRequest, "bad from: %v", err)
			return
		}
	}
	if body.To != "" {
		if to, err = time.Parse(time.RFC3339, body.To); err != nil {
			writeError(w, http.StatusBadRequest, "bad to: %v", err)
			return
		}
	}
	s.mu.Lock()
	if _, running := s.runs[name]; running {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "dataflow already running")
		return
	}
	done := make(chan error, 1)
	s.runs[name] = done
	s.mu.Unlock()
	go func() {
		err := d.Run(from, to)
		done <- err
		s.mu.Lock()
		delete(s.runs, name)
		s.mu.Unlock()
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{
		"from": from.Format(time.RFC3339), "to": to.Format(time.RFC3339),
	})
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := s.deployment(name)
	if !ok {
		writeError(w, http.StatusNotFound, "dataflow not deployed")
		return
	}
	s.mu.Lock()
	done := s.runs[name]
	s.mu.Unlock()
	d.Stop()
	if done != nil {
		if err := <-done; err != nil {
			writeError(w, http.StatusInternalServerError, "run failed: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "stopped"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.deployment(name); !ok {
		writeError(w, http.StatusNotFound, "dataflow not deployed")
		return
	}
	series := r.URL.Query().Get("series") == "true"
	writeJSON(w, http.StatusOK, s.Monitor.Snapshot(time.Now().UTC(), series))
}

func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request) {
	type nodeView struct {
		ID       string   `json:"id"`
		Capacity float64  `json:"capacity"`
		Load     float64  `json:"load"`
		Down     bool     `json:"down"`
		Region   geo.Rect `json:"region"`
	}
	var nodes []nodeView
	for _, id := range s.Network.Nodes() {
		n, load, _ := s.Network.Node(id)
		nodes = append(nodes, nodeView{
			ID: id, Capacity: n.Capacity, Load: load,
			Down: s.Network.IsDown(id), Region: n.Region,
		})
	}
	type flowView struct {
		ID     string `json:"id"`
		Tuples uint64 `json:"tuples"`
		Bytes  uint64 `json:"bytes"`
	}
	var flows []flowView
	for _, id := range s.Network.Flows() {
		tuples, bytes := s.Network.TransferStats(id)
		flows = append(flows, flowView{ID: id, Tuples: tuples, Bytes: bytes})
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": nodes, "flows": flows})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Monitor.Events())
}

func (s *Server) handleWarehouseStats(w http.ResponseWriter, r *http.Request) {
	if s.Warehouse == nil {
		writeError(w, http.StatusNotFound, "no warehouse configured")
		return
	}
	writeJSON(w, http.StatusOK, s.Warehouse.Stats())
}

// parseWarehouseFilter reads the STT filter params shared by the query,
// aggregate and subscribe endpoints: ?from=&to= (RFC3339), &region=minLat,
// minLon,maxLat,maxLon, &themes= and &sources= (comma-separated), &cond=
// (payload condition). The vocabulary and parsing live in the warehouse
// package (ParseQueryValues), shared with the slgen CLI.
func parseWarehouseFilter(r *http.Request) (warehouse.Query, error) {
	return warehouse.ParseQueryValues(r.URL.Query())
}

// parseFormat reads the response format param: "json" (the default, one
// buffered JSON document) or "ndjson" (newline-delimited JSON, flushed
// incrementally).
func parseFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		return "json", nil
	case "ndjson":
		return "ndjson", nil
	default:
		return "", fmt.Errorf("bad format %q (want json or ndjson)", f)
	}
}

// ndjsonFlushEvery is how many NDJSON lines are written between explicit
// flushes, so a large result streams to the client as it is encoded instead
// of buffering whole.
const ndjsonFlushEvery = 64

// ndjsonFlushInterval bounds how long a written line may sit buffered: a
// sparse stream (a slow query, a standing view between updates) flushes on
// this tick even when it never reaches ndjsonFlushEvery lines.
const ndjsonFlushInterval = 250 * time.Millisecond

// jsonAppender is a value that writes its own JSON, sparing encoding/json's
// reflection on the lines a stream has thousands of.
type jsonAppender interface {
	AppendJSON(dst []byte) []byte
}

// writeNDJSON streams one value per line, flushing every ndjsonFlushEvery
// lines, every ndjsonFlushInterval while lines sit buffered, and once at
// the end. A jsonAppender line encodes itself; any other value goes through
// encoding/json. It stops at the first write error (client gone) and
// reports whether the stream completed.
func writeNDJSON(w http.ResponseWriter, lines func(yield func(v any) bool)) bool {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// The ticker goroutine flushes concurrently with encoding, and
	// ResponseWriter does not promise Write/Flush are safe together — one
	// mutex covers both. dirty tracks lines written since the last flush,
	// so an idle stream costs no flush calls.
	var mu sync.Mutex
	dirty := false
	if flusher != nil {
		stop := make(chan struct{})
		var tickDone sync.WaitGroup
		tickDone.Add(1)
		go func() {
			defer tickDone.Done()
			t := time.NewTicker(ndjsonFlushInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					mu.Lock()
					if dirty {
						flusher.Flush()
						dirty = false
					}
					mu.Unlock()
				}
			}
		}()
		// Deferred, not inline after lines(): if the generator panics the
		// ticker goroutine must still be reaped (it holds the flusher and
		// would otherwise run for the life of the process) and the tail
		// flush must still happen before the handler unwinds.
		defer func() {
			close(stop)
			tickDone.Wait()
			flusher.Flush()
		}()
	}

	n := 0
	ok := true
	var line []byte // reused across jsonAppender lines
	lines(func(v any) bool {
		mu.Lock()
		defer mu.Unlock()
		var err error
		if a, appends := v.(jsonAppender); appends {
			line = append(a.AppendJSON(line[:0]), '\n')
			_, err = w.Write(line)
		} else {
			err = enc.Encode(v)
		}
		if err != nil {
			ok = false
			return false
		}
		dirty = true
		if n++; n%ndjsonFlushEvery == 0 && flusher != nil {
			flusher.Flush()
			dirty = false
		}
		return true
	})
	return ok
}

// handleWarehouseQuery runs an STT query against the Event Data Warehouse
// using the parseWarehouseFilter params plus &limit= and &offset=: a page is
// one warehouse.Select, a bare count (limit=0) one warehouse.Count, both
// under the request's context — a client that goes away stops the query at
// its next chunk read or segment — with the optional ?trace=1 trace riding
// on it. The select is one lazy (time, seq) merge over the routed shards'
// cold files and hot segments that stops once offset+limit+1 events are out,
// so chunks past the page are never decoded. Results are paged: offset skips
// that many matches in (time, seq) order, limit caps the page, and the
// response's "truncated" flag says whether more matches follow — so a
// spilled history can be walked page by page instead of materialized in one
// response. limit=0 asks for the match count alone: Count never materializes
// or sorts an event (time-only constraints resolve on segment indexes and
// cold-segment envelopes without touching disk; a cond= is evaluated event
// by event). The "segments" object reports how many time-partitioned
// segments the query scanned versus pruned by their time envelope, plus how
// many cold-segment chunks were served from the chunk cache versus read back
// from disk.
//
// Each event is written in the STT wire form (see package stt): sorted
// keys, non-finite numbers as null. The page is encoded by appending into
// one buffer that is handed to the connection every pageFlushBytes — no
// per-event map, no reflection — and is byte for byte the document
// encoding/json produced from maps. The page's events go through one
// stt.PageEncoder, on the JSON and the NDJSON path alike, taken from a pool
// so that what it remembers carries from page to page. Sensors quantize
// their readings, so a page of one minute from a few sensors holds few
// distinct values per field and repeats its _lat, _lon, _source, _theme and
// _time from event to event: the encoder formats each distinct value once
// and copies its bytes after that, and copies a repeated run of leading
// coordinates whole. The bytes do not change, because the encoder keys what
// it remembers by the value alone. With ?trace=1 the trace carries one
// "encode" span: the page's events, their bytes, and the values formatted
// versus copied. All of it runs after Select has returned, with no shard
// lock held: encoding inside the merge's emit callback would hold every
// routed shard's read lock across the page's socket writes.
//
// &format=ndjson streams the page as newline-delimited JSON instead of one
// buffered array: one {"seq","event"} object per line, flushed
// incrementally, terminated by a {"summary":...} line carrying what the
// JSON envelope would have (count, offset, truncated, segments) — so a
// client can process a large page as it arrives.
func (s *Server) handleWarehouseQuery(w http.ResponseWriter, r *http.Request) {
	if s.Warehouse == nil {
		writeError(w, http.StatusNotFound, "no warehouse configured")
		return
	}
	q, err := parseWarehouseFilter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format, err := parseFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params := r.URL.Query()
	limit := 100
	countOnly := false
	if v := params.Get("limit"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 || parsed > 10000 {
			writeError(w, http.StatusBadRequest, "limit must be 0..10000 (0: count only)")
			return
		}
		limit = parsed
		countOnly = parsed == 0
	}
	offset := 0
	if v := params.Get("offset"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeError(w, http.StatusBadRequest, "offset must be >= 0")
			return
		}
		offset = parsed
	}
	tr, wantTrace := s.queryTrace(r, "warehouse_query")
	ctx := obs.WithTrace(r.Context(), tr)
	start := time.Now()
	if countOnly {
		// The caller wants the cardinality, not the events: skip
		// materialization entirely. Offset is meaningless against a bare
		// count and is ignored. A count with a payload condition has to
		// evaluate events, so it keeps the same 10000-event ceiling paging
		// enforces — past it, the count comes back truncated.
		cq := q
		if cq.Cond != "" {
			cq.Limit = 10001
		}
		n, qs, err := s.Warehouse.Count(ctx, cq)
		if err != nil {
			writeError(w, warehouseErrStatus(err), "%v", err)
			return
		}
		s.noteSlow(r, tr, start)
		truncated := false
		if cq.Limit > 0 && n > 10000 {
			n, truncated = 10000, true
		}
		summary := map[string]any{
			"count": n, "segments": qs, "offset": 0, "truncated": truncated,
		}
		if wantTrace {
			summary["trace"] = tr.Report()
		}
		if format == "ndjson" {
			writeNDJSON(w, func(yield func(v any) bool) {
				yield(map[string]any{"summary": summary})
			})
			return
		}
		summary["events"] = []any{}
		writeJSON(w, http.StatusOK, summary)
		return
	}
	// offset+limit bounds how many events one request materializes — the
	// same 10000-event ceiling the limit alone used to carry. Deeper than
	// that, page by time instead: pass the last event's _time as from=.
	// The offset is bounded on its own first, so the sum cannot overflow.
	if offset > 10000 || offset+limit > 10000 {
		writeError(w, http.StatusBadRequest,
			"page too deep: offset+limit must be <= 10000; advance from= to the last seen event time instead")
		return
	}
	// Fetch one event past the page to learn whether the result was cut.
	q.Limit = offset + limit + 1
	evs, qs, err := s.Warehouse.Select(ctx, q)
	if err != nil {
		writeError(w, warehouseErrStatus(err), "%v", err)
		return
	}
	s.noteSlow(r, tr, start)
	truncated := len(evs) > offset+limit
	if truncated {
		evs = evs[:offset+limit]
	}
	if offset < len(evs) {
		evs = evs[offset:]
	} else {
		evs = nil
	}
	enc := pageEncoders.get()
	defer pageEncoders.put(enc)
	var span *obs.Span
	if wantTrace {
		span = tr.Start("encode")
		enc.TakeStats() // count this page's values only
	}
	if format == "ndjson" {
		summary := map[string]any{
			"count": len(evs), "segments": qs,
			"offset": offset, "truncated": truncated,
		}
		line := &pageLine{enc: enc}
		writeNDJSON(w, func(yield func(v any) bool) {
			for i := range evs {
				if line.ev = &evs[i]; !yield(line) {
					return
				}
			}
			if wantTrace {
				endEncode(span, enc, len(evs), line.bytes)
				summary["trace"] = tr.Report()
			}
			yield(map[string]any{"summary": summary})
		})
		return
	}
	// The envelope's members are written in the sorted order encoding/json
	// gives a map — count, events, offset, segments, trace, truncated — so
	// the events can be appended straight into the page buffer. What follows
	// them is small and goes through Marshal as a struct declared in that
	// same order, once the events are out, so that the trace holds their
	// encode span.
	w.Header().Set("Content-Type", "application/json")
	buf := make([]byte, 0, pageFlushBytes+pageFlushBytes/8)
	buf = append(buf, `{"count":`...)
	buf = strconv.AppendInt(buf, int64(len(evs)), 10)
	buf = append(buf, `,"events":[`...)
	eventBytes := 0
	for i := range evs {
		if i > 0 {
			buf = append(buf, ',')
		}
		start := len(buf)
		buf = appendPageEvent(buf, enc, &evs[i])
		eventBytes += len(buf) - start
		if len(buf) >= pageFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return // client gone
			}
			buf = buf[:0]
		}
	}
	var report *obs.TraceReport
	if wantTrace {
		endEncode(span, enc, len(evs), eventBytes)
		report = tr.Report()
	}
	// The tail holds ints, a bool and the trace's strings and ints, which
	// Marshal always encodes; an error here is a bug, and the events may
	// already be on the wire.
	tail, err := json.Marshal(struct {
		Offset    int                  `json:"offset"`
		Segments  warehouse.QueryStats `json:"segments"`
		Trace     *obs.TraceReport     `json:"trace,omitempty"`
		Truncated bool                 `json:"truncated"`
	}{offset, qs, report, truncated})
	if err != nil {
		log.Printf("encode query summary: %v", err)
		return
	}
	buf = append(buf, "],"...)
	buf = append(buf, tail[1:]...) // the tail's members, without its '{'
	buf = append(buf, '\n')
	_, _ = w.Write(buf) // a failed write is a client that left
}

// pageEncoders keeps page encoders, and the values they remember, from one
// select page to the next: what an encoder remembers is keyed by the value
// alone, so it is right for any later page.
var pageEncoders = newEncoderList(runtime.GOMAXPROCS(0))

// encoderList is a bounded free list of page encoders: as many as pages can
// encode at once, one per P. A get takes a kept encoder, or builds one when
// none is free; a put keeps it unless the list is full. Unlike a sync.Pool,
// a garbage collection does not empty it, so a store serving page after
// page builds its encoders once, not again after every collection.
type encoderList struct {
	free chan *stt.PageEncoder
	// built counts the encoders get had to build.
	built atomic.Uint64
}

func newEncoderList(n int) *encoderList {
	return &encoderList{free: make(chan *stt.PageEncoder, n)}
}

func (l *encoderList) get() *stt.PageEncoder {
	select {
	case enc := <-l.free:
		return enc
	default:
		l.built.Add(1)
		return new(stt.PageEncoder)
	}
}

func (l *encoderList) put(enc *stt.PageEncoder) {
	select {
	case l.free <- enc:
	default:
	}
}

// endEncode closes a page's encode span with the page's events, the bytes
// of their {"seq","event"} objects, and the values its encoder formatted and
// copied: set once per page, so tracing costs the loop nothing per event.
func endEncode(span *obs.Span, enc *stt.PageEncoder, events, bytes int) {
	st := enc.TakeStats()
	span.SetInt("events", int64(events))
	span.SetInt("bytes", int64(bytes))
	span.SetInt("values_formatted", int64(st.Formatted))
	span.SetInt("values_copied", int64(st.Copied))
	span.End()
}

// pageFlushBytes is how much of a JSON query page is encoded before it is
// handed to the connection: large enough that a 10000-event page costs a
// couple of dozen writes, small enough that the page buffer stays a minor
// allocation beside the events it renders.
const pageFlushBytes = 64 << 10

// appendPageEvent appends the wire form of one query match,
// {"seq":N,"event":{…}}, the same on a JSON page and on an NDJSON line. A
// page's matches go through one encoder, which copies a value or a run of
// leading coordinates it has written before instead of formatting it again.
func appendPageEvent(dst []byte, enc *stt.PageEncoder, ev *warehouse.Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	dst = append(dst, `,"event":`...)
	dst = enc.AppendJSON(dst, ev.Tuple)
	return append(dst, '}')
}

// pageLine is the NDJSON line of a page's current match. One pageLine is
// yielded for every match in turn: boxing the same pointer costs no
// allocation, and its encoder keeps its memory from line to line. bytes
// sums the lines' event bytes for the encode span.
type pageLine struct {
	enc   *stt.PageEncoder
	ev    *warehouse.Event
	bytes int
}

func (l *pageLine) AppendJSON(dst []byte) []byte {
	start := len(dst)
	dst = appendPageEvent(dst, l.enc, l.ev)
	l.bytes += len(dst) - start
	return dst
}

// statusClientClosedRequest is nginx's code for a request whose client left
// before the answer: nobody reads it, and it stays out of the 5xx count.
const statusClientClosedRequest = 499

// warehouseErrStatus classifies a warehouse query/aggregate evaluation
// error: malformed specs are the client's (400), a condition that fails at
// runtime or a group explosion is addressable by the client (422), a scan
// cancelled because the client went away is nobody's fault (499), and
// anything else — cold-segment I/O above all — is a server fault (500).
func warehouseErrStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, warehouse.ErrInvalidAggQuery):
		return http.StatusBadRequest
	case errors.Is(err, warehouse.ErrCondEval), errors.Is(err, warehouse.ErrTooManyGroups):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// aggRows is an aggregate result as the endpoint returns it: under
// encoding/json the rows array, and line by line for NDJSON, both written
// by warehouse.AggRow.AppendJSON — the rendering a subscription's frames
// carry, so a pushed snapshot reads exactly like a pulled one. The bucket
// field appears only for bucketed queries.
type aggRows struct {
	rows     []warehouse.AggRow
	bucketed bool
}

func (a aggRows) MarshalJSON() ([]byte, error) {
	return warehouse.AppendAggRowsJSON(nil, a.rows, a.bucketed), nil
}

// aggRowLine is one row of an aggRows as an NDJSON line.
type aggRowLine struct {
	row      *warehouse.AggRow
	bucketed bool
}

func (l aggRowLine) AppendJSON(dst []byte) []byte { return l.row.AppendJSON(dst, l.bucketed) }

// handleWarehouseAggregate pushes an aggregation down into the warehouse:
// the parseWarehouseFilter params plus &func= (count, sum, avg, min, max),
// &field= (the aggregated payload field; required for everything but
// count), &group= (comma-separated: source, theme) and &bucket= (a Go
// duration; fixed-width event-time windows). It is one warehouse.Aggregate
// under the request's context, cancellable and traceable like a query. The
// aggregation is evaluated as per-shard, per-segment partial aggregates
// merged at the top — no event list is materialized, and cold segments
// whose header stats cover the
// query never open their event block (the "cold_header_only" counter in
// "segments" says how many were answered that way). Partially-covered v2
// cold files answer individual chunks from the per-chunk stats in their
// sparse index instead of decoding them — "cold_chunk_stats_hits" counts
// the chunks answered without a read. Rows come back sorted
// by (bucket, source, theme); &format=ndjson streams one row per line
// followed by a {"summary":...} line.
func (s *Server) handleWarehouseAggregate(w http.ResponseWriter, r *http.Request) {
	if s.Warehouse == nil {
		writeError(w, http.StatusNotFound, "no warehouse configured")
		return
	}
	format, err := parseFormat(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	aq, err := warehouse.ParseAggQueryValues(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	aq.MaxGroups = s.AggMaxGroups
	fn := aq.Func
	tr, wantTrace := s.queryTrace(r, "warehouse_aggregate")
	start := time.Now()
	rows, qs, err := s.Warehouse.Aggregate(obs.WithTrace(r.Context(), tr), aq)
	if err != nil {
		writeError(w, warehouseErrStatus(err), "%v", err)
		return
	}
	s.noteSlow(r, tr, start)
	bucketed := aq.Bucket > 0
	summary := map[string]any{
		"func": string(fn), "field": aq.Field, "segments": qs,
	}
	if wantTrace {
		summary["trace"] = tr.Report()
	}
	if format == "ndjson" {
		summary["rows"] = len(rows)
		writeNDJSON(w, func(yield func(v any) bool) {
			for i := range rows {
				if !yield(aggRowLine{&rows[i], bucketed}) {
					return
				}
			}
			yield(map[string]any{"summary": summary})
		})
		return
	}
	summary["rows"] = aggRows{rows, bucketed}
	writeJSON(w, http.StatusOK, summary)
}

func (s *Server) handleViz(w http.ResponseWriter, r *http.Request) {
	if s.Board == nil {
		writeError(w, http.StatusNotFound, "no viz board configured")
		return
	}
	if r.URL.Query().Get("format") == "ascii" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.Board.RenderASCII())
		return
	}
	writeJSON(w, http.StatusOK, s.Board.Snapshot())
}
