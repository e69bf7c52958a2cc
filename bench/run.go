package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// nominalSeconds is the measured time the committed sizes are made for:
// ingest rounds 1 to 3, the sampled queries and the live range. -seconds
// scales the amount of work in proportion. Every timed phase is a fixed
// amount of work for a given -seconds, so the same seed always gives the
// same inputs.
const nominalSeconds = 20.0

const (
	ingestRounds      = 4   // round 0 is warm-up; the metrics are the median of rounds 1 to 3
	queryPairsNominal = 300 // select/aggregate pairs sampled in the query phase
	queryWarmNominal  = 30  // pairs sent and discarded before them
	liveNominal       = 6000 * time.Millisecond
	liveLead          = 500 * time.Millisecond // the live range starts this far ahead of now
	selectLimit       = 5000
	verifyEvery       = 20 // one query in twenty is checked against the naive scan
	failedQueryMS     = 60_000.0
	lateSlice         = 250 * time.Millisecond
	starvedLateMS     = 5.0 // gen_late_ms_p90 above this flags the run as starved
)

type runOpts struct {
	w       workload
	seed    int64
	seconds float64
	hz      float64
	traced  bool
	workdir string // child data directories are made here
	outDir  string // span files are written here
	log     io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Metrics   map[string]metric `json:"metrics"`
	N         map[string]int    `json:"n"` // sample count behind each percentile
	Attempted int64             `json:"ops_attempted"`
	Failed    int64             `json:"ops_failed"`
	Errors    []string          `json:"errors,omitempty"`
	// AsMeasured holds the time-based end-to-end metrics before the box
	// factor is applied (reference.go): the plain medians.
	AsMeasured map[string]float64 `json:"as_measured"`
	Hygiene    hygiene            `json:"hygiene"`
	SelfTimes  []layerSelf        `json:"self_times,omitempty"`
	SpanFile   string             `json:"span_file,omitempty"`
}

// hygiene records the conditions a run was measured under.
type hygiene struct {
	NProc        int     `json:"nproc"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	LoadStart    float64 `json:"load1_start"`
	LoadEnd      float64 `json:"load1_end"`
	BoxFactor    float64 `json:"box_factor"` // over the whole run; above 1 on a slow box
	GenLateMSP90 float64 `json:"gen_late_ms_p90"`
	Starved      bool    `json:"starved"`
	WallSeconds  float64 `json:"wall_s"`
}

// run is the state of one benchmark run.
type run struct {
	runOpts
	tr   *tracer
	box  *boxReference
	orc  *oracle
	sut  *sut
	rep  *report
	errs []string

	opsFailed int64 // failures other than HTTP ones, which the sut counts
	frames    int64 // view frames received
	events    int64 // events the sources were expected to generate

	minutes     int   // minutes of history replayed so far
	stored      int64 // events the store has taken so far, evicted ones included
	deployments int   // dataflows deployed on the current child

	opsIn, opsOut, opsDropped int64 // operator counters summed over the runs

	rounds   []roundResult
	selectMS []float64
	aggMS    []float64
	// queryFrom and queryTo span the sampled queries.
	queryFrom, queryTo time.Time
	checks             []pendingCheck
	layers             *layerCounters
}

type roundResult struct {
	events  int64
	wall    float64
	cpu     float64
	factor  float64 // box factor while the round ran
	scraped bool
}

// pendingCheck is a query reply kept for the oracle; replies are checked
// after the timed phases so the check never competes with the child.
type pendingCheck struct {
	isAgg    bool
	from, to int // minutes
	body     []byte
}

func (r *run) logf(format string, args ...any) {
	if r.log != nil {
		fmt.Fprintf(r.log, "[%s] %s\n", r.w.name, fmt.Sprintf(format, args...))
	}
}

// fail records a correctness failure: n failed operations and why.
func (r *run) fail(n int64, format string, args ...any) {
	r.opsFailed += max(n, 1)
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *run) scaled(nominal int) int {
	return max(1, int(math.Round(float64(nominal)*r.seconds/nominalSeconds)))
}

// runWorkload performs one run: setup, ingest, query, live, checks.
func runWorkload(o runOpts) (*report, error) {
	wallStart := time.Now()
	r := &run{runOpts: o, rep: &report{
		Workload: o.w.name, Seed: o.seed, Metrics: map[string]metric{}, N: map[string]int{},
		Hygiene: hygiene{NProc: runtime.NumCPU(), GoMaxProcs: runtime.NumCPU(),
			GoVersion: runtime.Version(), LoadStart: loadAvg1()},
	}}
	if o.traced {
		r.tr = newTracer()
		r.layers = &layerCounters{}
	}
	r.box = startReference()
	defer r.box.stop()
	specs := fleetSpecs(o.seed, o.hz, nil)
	orc, err := newOracle(o.w, specs)
	if err != nil {
		return nil, err
	}
	r.orc = orc
	defer func() {
		if r.sut != nil {
			r.sut.stop()
		}
	}()

	setupS, setupFactor, err := r.setupPhase()
	if err != nil {
		return nil, err
	}
	r.logf("setup done at %.1fs", time.Since(wallStart).Seconds())
	if err := r.ingestPhase(); err != nil {
		return nil, err
	}
	r.logf("ingest done at %.1fs", time.Since(wallStart).Seconds())
	if !r.w.concurrent {
		if err := r.queryPhase(); err != nil {
			return nil, err
		}
		r.logf("query done at %.1fs", time.Since(wallStart).Seconds())
	}
	live, err := r.livePhase()
	if err != nil {
		return nil, err
	}
	r.logf("live done at %.1fs", time.Since(wallStart).Seconds())
	r.layers.opCounters(r.opsIn, r.opsOut, r.opsDropped)
	rss, err := procPeakRSS(r.sut.pid())
	if err != nil {
		return nil, err
	}
	diskStats, err := r.sut.stats()
	if err != nil {
		return nil, err
	}
	r.runChecks()
	r.logf("checks done at %.1fs", time.Since(wallStart).Seconds())

	// End-to-end metrics, each a median: of rounds 1 to 3 (round 0 is
	// warm-up: sink sizing and heap growth settle there), of every sampled
	// query of the one shape, of every live event. Every timed unit is
	// reported at the reference box speed (reference.go): durations divided
	// by the box factor over the unit, rates multiplied by it.
	var rates, cpus, atRefRates, atRefCPUs []float64
	for _, rd := range r.rounds[1:] {
		rate, cpu := float64(rd.events)/rd.wall, rd.cpu/float64(rd.events)*1e6
		rates, cpus = append(rates, rate), append(cpus, cpu)
		atRefRates, atRefCPUs = append(atRefRates, rate*rd.factor), append(atRefCPUs, cpu/rd.factor)
	}
	queryFactor := r.box.factor(r.queryFrom, r.queryTo)
	measured := map[string]float64{
		"setup_s":                 setupS,
		"ingest_events_per_s":     median(rates),
		"ingest_cpu_us_per_event": median(cpus),
		"select_ms_p50":           percentile(r.selectMS, 0.5),
		"agg_ms_p50":              percentile(r.aggMS, 0.5),
	}
	e2e := map[string]metric{
		"setup_s":                 {setupS / setupFactor, "s"},
		"ingest_events_per_s":     {median(atRefRates), "1/s"},
		"ingest_cpu_us_per_event": {median(atRefCPUs), "us"},
		"rss_peak_mb":             {rss, "MB"},
		"select_ms_p50":           {measured["select_ms_p50"] / queryFactor, "ms"},
		"agg_ms_p50":              {measured["agg_ms_p50"] / queryFactor, "ms"},
		"fresh_ms_p50":            {percentile(live.fresh, 0.5), "ms"},
		"fresh_ms_p90":            {percentile(live.fresh, 0.9), "ms"},
	}
	r.rep.AsMeasured = measured
	r.rep.N["ingest_events_per_s"] = len(rates)
	r.rep.N["ingest_cpu_us_per_event"] = len(cpus)
	r.rep.N["select_ms_p50"] = len(r.selectMS)
	r.rep.N["agg_ms_p50"] = len(r.aggMS)
	r.rep.N["fresh_ms_p50"] = len(live.fresh)
	r.rep.N["fresh_ms_p90"] = len(live.fresh)
	r.rep.N["setup_s"] = 1

	if r.traced {
		if r.rep.Metrics, err = r.perLayer(measured["ingest_cpu_us_per_event"], live, diskStats); err != nil {
			return nil, err
		}
		r.rep.SelfTimes = r.tr.selfTimes()
		r.rep.SpanFile = filepath.Join(r.outDir, "trace-"+r.w.name+".json")
		if err := r.tr.write(r.rep.SpanFile); err != nil {
			return nil, err
		}
	} else {
		r.rep.Metrics = e2e
	}

	h := &r.rep.Hygiene
	h.LoadEnd = loadAvg1()
	h.BoxFactor = r.box.factor(wallStart, time.Now())
	h.GenLateMSP90 = percentile(live.late, 0.9)
	h.Starved = h.GenLateMSP90 > starvedLateMS || h.LoadStart > float64(h.NProc)
	h.WallSeconds = time.Since(wallStart).Seconds()
	r.rep.Attempted = r.sut.calls.Load() + r.events + r.frames
	r.rep.Failed = r.sut.failed.Load() + r.opsFailed
	r.rep.Errors = r.errs
	return r.rep, nil
}

// setupPhase spawns the child, deploys the dataflow and preloads history.
// It returns the time from the spawn to the settled preload and the box
// factor over it.
func (r *run) setupPhase() (seconds, factor float64, err error) {
	r.orc.extend(preloadMinutes)
	sp := r.tr.enter("phase.setup")
	defer sp.end()
	t0 := time.Now()
	s, err := startSUT(r.w, r.seed, r.hz, r.workdir, r.tr)
	if err != nil {
		return 0, 0, err
	}
	r.sut = s
	if _, err := r.replay(preloadMinutes, true); err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	r.events += r.orc.generated(0, preloadMinutes)
	return t1.Sub(t0).Seconds(), r.box.factor(t0, t1), nil
}

// deploy creates and deploys the workload's dataflow under a fresh name and
// returns the name. Every run (the preload, each ingest round, the live
// range) gets a deployment of its own, because a deployment that has run
// once cannot be trusted to run again: internal/ops.Join keeps its flushed
// high-water mark across runs, the end-of-stream flush sets it to the end of
// time, and every later run's tuples are then dropped as late (README.md,
// "Findings"). The sensors are the server's, not the deployment's, so their
// sequence continues across deployments.
func (r *run) deploy() (string, error) {
	name := fmt.Sprintf("%s-%d", dataflowKey, r.deployments)
	r.deployments++
	spec := buildSpec(r.w, fleetSpecs(r.seed, r.hz, nil))
	spec.Name = name
	if _, err := r.sut.post("http.create", "/api/dataflows", spec); err != nil {
		return "", err
	}
	if _, err := r.sut.post("executor.deploy", "/api/dataflows/"+name+"/deploy", nil); err != nil {
		return "", err
	}
	r.orc.newDeployment()
	return name, nil
}

// opStats reads the operator counters of the deployment that ran last.
func (r *run) opStats(name string) ([]opCounters, error) {
	data, err := r.sut.get("http.dataflow_stats", "/api/dataflows/"+name+"/stats")
	if err != nil {
		return nil, err
	}
	var rep struct {
		Ops []opCounters `json:"ops"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("dataflow stats: %w", err)
	}
	return rep.Ops, nil
}

type opCounters struct {
	Name    string `json:"name"`
	In      int64  `json:"in"`
	Out     int64  `json:"out"`
	Dropped int64  `json:"dropped"`
}

// progress reads how many events of the current run the store has taken.
// Without retention that is the growth of the store's count. With a
// retention bound the count stops growing and evictions are exposed only on
// /metrics, which is too dear to poll; the sinks' own counters are polled
// instead, and the store's count is checked once the run has drained.
func (r *run) progress(name string) (int64, error) {
	if r.w.retain == 0 {
		st, err := r.sut.stats()
		return st.Events - r.stored, err
	}
	ops, err := r.opStats(name)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, op := range ops {
		if isSink(op.Name) {
			n += op.Out
		}
	}
	return n, nil
}

// settled reads the exact number of events the store has taken since the
// child started, evicted ones included.
func (r *run) settled() (int64, error) {
	if r.w.retain == 0 {
		st, err := r.sut.stats()
		return st.Events, err
	}
	m, err := r.scrape()
	if err != nil {
		return 0, err
	}
	return int64(m[whPrefix+"events"] + m[whPrefix+"evicted_total"]), nil
}

// replay deploys the dataflow, starts it over the next `minutes` of history
// and waits until the store holds what the oracle expects. The wall time and
// the child's CPU time are taken from the start call to the poll that sees
// the expected count. With quiesce, it also waits for the store's background
// work to go quiet.
func (r *run) replay(minutes int, quiesce bool) (roundResult, error) {
	from, to := r.minutes, r.minutes+minutes
	name, err := r.deploy()
	if err != nil {
		return roundResult{}, err
	}
	r.orc.extend(to)
	want := r.orc.stored(from, to)
	res := roundResult{events: r.orc.generated(from, to)}
	pid := r.sut.pid()
	sp := r.tr.enter("ingest.round")
	defer sp.end()
	cpu0, err := procCPU(pid)
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	body := map[string]string{
		"from": r.orc.minuteStart(from).Format(time.RFC3339),
		"to":   r.orc.minuteStart(to).Format(time.RFC3339),
	}
	if _, err := r.sut.post("http.start", "/api/dataflows/"+name+"/start", body); err != nil {
		return res, err
	}
	// Poll every 20 ms, and every 2 ms once the count is within 40 ms of
	// done at the rate seen so far, so the end is timed to ~2 ms without a
	// tight poll throughout.
	deadline := t0.Add(90 * time.Second)
	for {
		got, err := r.progress(name)
		if err != nil {
			return res, err
		}
		now := time.Now()
		if got >= want {
			res.wall = now.Sub(t0).Seconds()
			res.factor = r.box.factor(t0, now)
			break
		}
		if now.After(deadline) {
			break
		}
		sleep := 20 * time.Millisecond
		if got > 0 {
			perEvent := float64(now.Sub(t0)) / float64(got)
			if time.Duration(float64(want-got)*perEvent) < 40*time.Millisecond {
				sleep = 2 * time.Millisecond
			}
		}
		time.Sleep(sleep)
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return res, err
	}
	res.cpu = cpu1 - cpu0
	// stop returns once the run has drained; it is outside the timed part.
	if _, err := r.sut.post("http.stop", "/api/dataflows/"+name+"/stop", nil); err != nil {
		return res, err
	}
	got, err := r.settled()
	if err != nil {
		return res, err
	}
	if got != r.stored+want {
		r.fail(abs64(got-r.stored-want), "replay of minutes %d..%d: store took %d events, want %d", from, to, got-r.stored, want)
		if res.wall == 0 {
			return res, fmt.Errorf("replay of minutes %d..%d never settled: %d of %d events", from, to, got-r.stored, want)
		}
	}
	if err := r.checkDrops(name, r.orc.drops(from, to)); err != nil {
		return res, err
	}
	if quiesce {
		if err := r.quiesce(); err != nil {
			return res, err
		}
	}
	r.minutes, r.stored = to, r.stored+want
	return res, nil
}

// quiesce waits until a durable store's background work has gone quiet: no
// segment spilled and no compaction finished for 500 ms (less on runs
// shortened below a quarter of the committed length), or 5 s have passed.
func (r *run) quiesce() error {
	if !r.w.durable {
		return nil
	}
	quiet := min(500*time.Millisecond, time.Duration(r.seconds/nominalSeconds*float64(2*time.Second)))
	last, start := whStats{SegmentsSpilled: -1}, time.Now()
	for quietSince := start; time.Since(quietSince) < quiet && time.Since(start) < 5*time.Second; time.Sleep(20 * time.Millisecond) {
		st, err := r.sut.stats()
		if err != nil {
			return err
		}
		if st.SegmentsSpilled != last.SegmentsSpilled || st.Compactions != last.Compactions {
			quietSince, last = time.Now(), st
		}
	}
	return nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func isSource(op string) bool { return op[0] == 's' } // buildSpec names sources s<i>
func isSink(op string) bool   { return op[0] == 'w' } // and sinks w<i>, wj, wa

// checkDrops compares the dropped counters of the deployment that just ran
// with the drops its filters and culls are meant to make. Anything else an
// operator dropped is a lost tuple; the join's late-tuple drops show here.
func (r *run) checkDrops(name string, want int64) error {
	ops, err := r.opStats(name)
	if err != nil {
		return err
	}
	var dropped int64
	for _, op := range ops {
		dropped += op.Dropped
		if !isSource(op.Name) && !isSink(op.Name) {
			r.opsIn, r.opsOut, r.opsDropped = r.opsIn+op.In, r.opsOut+op.Out, r.opsDropped+op.Dropped
		}
	}
	if dropped != want {
		r.fail(abs64(dropped-want), "%s: operators dropped %d tuples, the filters and culls should drop %d", name, dropped, want)
	}
	return nil
}

// ingestPhase replays the rounds. Round 0 is warm-up. On views-durable a
// standing view is held open throughout; on query-under-ingest the query
// loop runs beside rounds 1 and later.
func (r *run) ingestPhase() error {
	sp := r.tr.enter("phase.ingest")
	defer sp.end()
	minutes := r.scaled(r.w.roundMinutes)

	var view *subscriber
	if r.w.view {
		var err error
		if view, err = r.sut.subscribe(standingViewQuery, false); err != nil {
			return err
		}
		defer func() {
			if view != nil {
				view.close()
			}
		}()
	}
	before := r.phaseScrape()

	var stopQueries chan struct{}
	var queriesDone sync.WaitGroup
	stopAll := func() {
		if stopQueries != nil {
			close(stopQueries)
			queriesDone.Wait()
			stopQueries = nil
		}
	}
	defer stopAll()
	for i := 0; i < ingestRounds; i++ {
		if i == 1 && r.w.concurrent {
			stopQueries = make(chan struct{})
			queriesDone.Add(1)
			plan, stop := r.queryPlan(), stopQueries
			go func() {
				defer queriesDone.Done()
				r.queryLoop(plan, r.scaled(len(plan.selects)), 0, stop) // the first pass fills the cache
			}()
		}
		// In a traced run every other measured round is scraped as it runs,
		// which is what tracing costs ingest; see trace.overhead_ingest_pct.
		scraping := r.traced && i > 0 && i%2 == 0
		stopScrape := make(chan struct{})
		var scrapeDone sync.WaitGroup
		if scraping {
			scrapeDone.Add(1)
			go func() {
				defer scrapeDone.Done()
				for {
					select {
					case <-stopScrape:
						return
					case <-time.After(100 * time.Millisecond):
						_, _ = r.scrape()
					}
				}
			}()
		}
		res, err := r.replay(minutes, false)
		close(stopScrape)
		scrapeDone.Wait()
		if err != nil {
			return err
		}
		res.scraped = scraping
		r.rounds = append(r.rounds, res)
		r.events += res.events
		r.logf("round %d: %.0f events/s, %.2f us cpu/event", i, float64(res.events)/res.wall, res.cpu/float64(res.events)*1e6)
	}
	stopAll()
	after := r.phaseScrape()
	r.layers.ingestDelta(before, after, r.rounds)
	if r.w.concurrent {
		r.layers.queryDelta(before, after)
	}

	if view != nil {
		r.checkStandingView(view)
		view.close()
		r.frames += view.count
		r.layers.viewFrames(view)
		view = nil
	}
	return nil
}

// checkStandingView waits for the view to catch up with the settled store
// and compares its final frame with the naive re-aggregation.
func (r *run) checkStandingView(view *subscriber) {
	want := r.orc.avgRows(0, r.minutes)
	var wantCount int64
	for _, row := range want {
		wantCount += row.Count
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		f, _ := view.lastFrame()
		var got int64
		for _, row := range f.Rows {
			got += row.Count
		}
		if got == wantCount || time.Now().After(deadline) {
			if err := checkRows("standing view final frame", f.Rows, want); err != nil {
				r.fail(1, "%v", err)
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// queryPlan is the seeded sequence of window positions. Each workload has
// one select shape (one minute, limit 5000) and one aggregate shape
// (r.w.aggMinutes minutes, per-minute buckets by source); only positions vary.
type queryPlan struct {
	selects []int // minute of the i-th select, cyclically
	aggs    []int // first minute of the i-th aggregate window, cyclically
}

func (r *run) queryPlan() queryPlan {
	rng := rand.New(rand.NewSource(r.seed ^ 0x5eed))
	perm := func(lo, hi int) []int { // seeded permutation of [lo, hi)
		p := rng.Perm(hi - lo)
		for i := range p {
			p[i] += lo
		}
		return p
	}
	switch {
	case r.w.concurrent:
		// A working set that fits the cold cache: windows inside the
		// preloaded history, revisited. They are cold well before round 1.
		return queryPlan{selects: perm(0, revisitMinutes), aggs: perm(0, preloadMinutes-r.w.aggMinutes+1)}
	case r.w.retain > 0:
		// The retained hot range only. Retention keeps the newest events;
		// which events of the boundary minute survive depends on append
		// order, so stay clear of it by a third of the bound.
		perMinute := int(r.orc.stored(r.minutes-1, r.minutes))
		safe := max(r.w.aggMinutes+1, r.w.retain*2/3/perMinute)
		lo := max(0, r.minutes-safe)
		return queryPlan{selects: perm(lo, r.minutes), aggs: perm(lo, r.minutes-r.w.aggMinutes+1)}
	default:
		// All history, in one seeded order repeated pass after pass: no
		// minute repeats within a pass, and history is several times what
		// the cold cache holds, so an LRU serves little of a pass from it.
		return queryPlan{selects: perm(0, r.minutes), aggs: perm(0, r.minutes-r.w.aggMinutes+1)}
	}
}

func (r *run) selectPath(m int) string {
	return fmt.Sprintf("/api/warehouse/query?from=%s&to=%s&limit=%d",
		r.orc.minuteStart(m).Format(time.RFC3339), r.orc.minuteStart(m+1).Format(time.RFC3339), selectLimit)
}

func (r *run) aggPath(m int) string {
	return fmt.Sprintf("/api/warehouse/aggregate?func=avg&field=temperature&group=source&bucket=1m&from=%s&to=%s",
		r.orc.minuteStart(m).Format(time.RFC3339), r.orc.minuteStart(m+r.w.aggMinutes).Format(time.RFC3339))
}

// queryLoop is the closed loop of one client: select, aggregate, select...
// It discards `warm` pairs, then samples `pairs` pairs, or, with pairs == 0,
// samples until stop closes. In a traced run every other pair asks the
// server for its span breakdown; those are timed apart, and the difference
// is trace.overhead_select_pct.
func (r *run) queryLoop(plan queryPlan, warm, pairs int, stop <-chan struct{}) {
	for i := 0; pairs == 0 || i < warm+pairs; i++ {
		select {
		case <-stop:
			return
		default:
		}
		traced := r.traced && i%2 == 1
		suffix := ""
		if traced {
			suffix = "&trace=1"
		}
		sm, am := plan.selects[i%len(plan.selects)], plan.aggs[i%len(plan.aggs)]
		t0 := time.Now()
		sbody, serr := r.sut.get("http.select", r.selectPath(sm)+suffix)
		t1 := time.Now()
		abody, aerr := r.sut.get("http.aggregate", r.aggPath(am)+suffix)
		t2 := time.Now()
		if i < warm {
			continue
		}
		// A failed query counts as a miss on its latency metric: it has no
		// latency of its own, so it is charged a minute.
		sms, ams := float64(t1.Sub(t0))/1e6, float64(t2.Sub(t1))/1e6
		if serr != nil {
			sms = failedQueryMS
		}
		if aerr != nil {
			ams = failedQueryMS
		}
		if r.queryFrom.IsZero() {
			r.queryFrom = t0
		}
		r.queryTo = t2
		if traced {
			r.layers.tracedQuery(sms, ams)
		} else {
			r.selectMS = append(r.selectMS, sms)
			r.aggMS = append(r.aggMS, ams)
		}
		r.layers.queryReply(sbody, abody)
		if (i-warm)%verifyEvery == 0 && serr == nil && aerr == nil {
			r.checks = append(r.checks,
				pendingCheck{from: sm, to: sm + 1, body: sbody},
				pendingCheck{isAgg: true, from: am, to: am + r.w.aggMinutes, body: abody})
		}
	}
}

func (r *run) queryPhase() error {
	sp := r.tr.enter("phase.query")
	defer sp.end()
	before := r.phaseScrape()
	r.queryLoop(r.queryPlan(), r.scaled(queryWarmNominal), r.scaled(queryPairsNominal), nil)
	r.layers.queryDelta(before, r.phaseScrape())
	return nil
}

// runChecks has the oracle check the sampled replies.
func (r *run) runChecks() {
	for _, c := range r.checks {
		var err error
		if c.isAgg {
			err = r.orc.checkAggregate(c.body, c.from, c.to)
		} else {
			err = r.orc.checkSelect(c.body, c.from, selectLimit)
		}
		if err != nil {
			r.fail(1, "%v", err)
		}
	}
	r.rep.N["queries_checked"] = len(r.checks)
}

type liveResult struct {
	fresh []float64 // ms, one per delivered event
	// late is, per lateSlice of the live range, the freshest delivery seen
	// minus the freshest of the whole range. An event that met its sink's
	// age tick just as it fired waits for nothing, so its freshness is how
	// late the source fired plus the path to the subscriber; the freshest
	// delivery of all stands for the path with a source on time. The
	// sources' own firing times are not observable over HTTP (event times
	// are truncated to the minute); this bounds their lateness from above.
	late   []float64
	cpuUS  float64 // child CPU per event over the phase
	events int64
}

// livePhase paces a range that starts just ahead of now through the
// dataflow in real time, with one event-policy count view attached, and
// times every event from when it was due to when the frame that first
// counts it arrived. Event k of a source is due at from + k*period: the
// timing is open loop, from the schedule, not from when the source fired.
func (r *run) livePhase() (liveResult, error) {
	sp := r.tr.enter("phase.live")
	defer sp.end()
	var res liveResult
	dur := time.Duration(float64(liveNominal) * r.seconds / nominalSeconds).Round(r.orc.period)
	dur = max(dur, 3*r.orc.period)
	ticks := int(dur / r.orc.period)

	// Spills and compactions left over from ingest would otherwise run into
	// the paced range on query-under-ingest, which has no quiet phase before.
	if err := r.quiesce(); err != nil {
		return res, err
	}
	name, err := r.deploy()
	if err != nil {
		return res, err
	}
	from := time.Now().UTC().Add(liveLead)
	to := from.Add(dur)
	kept, drops := r.orc.liveKept(from, ticks)

	// The view counts live events only: every event carries its minute as
	// its event time, so the filter starts at the minute the range starts in.
	sub, err := r.sut.subscribe(liveViewQuery+"&from="+from.Truncate(time.Minute).Format(time.RFC3339), true)
	if err != nil {
		return res, err
	}
	pid := r.sut.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		sub.close()
		return res, err
	}
	body := map[string]string{"from": from.Format(time.RFC3339Nano), "to": to.Format(time.RFC3339Nano)}
	if _, err := r.sut.post("http.start", "/api/dataflows/"+name+"/start", body); err != nil {
		sub.close()
		return res, err
	}
	var want int64
	for _, k := range kept {
		want += int64(len(k))
	}
	// Wait for the range to pass and the last frame to count everything.
	deadline := to.Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if time.Now().Before(to) {
			continue
		}
		f, _ := sub.lastFrame()
		var got int64
		for _, row := range f.Rows {
			if _, ok := kept[row.Source]; ok {
				got += row.Count
			}
		}
		if got >= want {
			break
		}
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		sub.close()
		return res, err
	}
	_, err = r.sut.post("http.stop", "/api/dataflows/"+name+"/stop", nil)
	sub.close()
	if err != nil {
		return res, err
	}
	if sub.err != nil {
		r.fail(1, "live view: %v", sub.err)
	}
	r.frames += sub.count
	res.events = int64(ticks) * int64(len(kept))
	r.events += res.events
	res.cpuUS = (cpu1 - cpu0) / float64(res.events) * 1e6

	// The first frame is the baseline; each later frame that raises a
	// source's count from c to c' delivered that source's events c..c'-1.
	seen := map[string]int64{}
	base := map[string]int64{}
	best := map[int]float64{} // slice of the live range -> freshest delivery, ms
	for i, f := range sub.frames {
		if i == 0 {
			for _, row := range f.Rows {
				base[row.Source] = row.Count
			}
			continue
		}
		if f.Shed > 0 || f.Resnapshot || f.Error != "" {
			r.fail(1, "live view frame %d: shed=%d resnapshot=%v error=%q", i, f.Shed, f.Resnapshot, f.Error)
		}
		for _, row := range f.Rows {
			ks, ok := kept[row.Source]
			if !ok {
				continue
			}
			c, c2 := seen[row.Source], row.Count-base[row.Source]
			if c2 > int64(len(ks)) {
				r.fail(c2-int64(len(ks)), "live view: %d events of %s, want %d", c2, row.Source, len(ks))
				c2 = int64(len(ks))
			}
			for j := c; j < c2; j++ {
				due := from.Add(time.Duration(ks[j]) * r.orc.period)
				ms := float64(f.recv.Sub(due)) / 1e6
				res.fresh = append(res.fresh, ms)
				slice := int(time.Duration(ks[j]) * r.orc.period / lateSlice)
				if b, ok := best[slice]; !ok || ms < b {
					best[slice] = ms
				}
			}
			if c2 > c {
				seen[row.Source] = c2
			}
		}
	}
	floor := math.Inf(1)
	for _, ms := range best {
		floor = min(floor, ms)
	}
	for _, ms := range best {
		res.late = append(res.late, ms-floor)
	}
	for src, ks := range kept {
		if seen[src] != int64(len(ks)) {
			r.fail(int64(len(ks))-seen[src], "live view: final count of %s is %d, want %d", src, seen[src], len(ks))
		}
	}
	if err := r.checkDrops(name, drops); err != nil {
		return res, err
	}
	r.layers.liveDone(res, sub)
	return res, nil
}

// scrape reads GET /metrics into a map from series key to value.
func (r *run) scrape() (map[string]float64, error) {
	data, err := r.sut.get("obs.expose", "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(bytes.NewReader(data))
}

// phaseScrape is the /metrics snapshot a traced run takes at each phase
// boundary; untraced runs skip it.
func (r *run) phaseScrape() map[string]float64 {
	if !r.traced {
		return nil
	}
	m, err := r.scrape()
	if err != nil {
		r.fail(1, "%v", err)
	}
	return m
}
