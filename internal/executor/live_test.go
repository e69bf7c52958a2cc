package executor

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/obs"
	"streamloader/internal/ops"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// The live rule of Deployment.runSink, driven by hand: the test owns the
// clock and every item on the edge, and SinkMaxAge is seconds while the
// sink's age tick is an hour, so no tick can do a flush the rule missed.

const liveMaxAge = 5 * time.Second

// testClock is a clock of the test's own — not a *stream.VirtualClock,
// whose runs the executor takes for replays — that the test sets and that
// counts how often it is read.
type testClock struct {
	mu    sync.Mutex
	now   time.Time
	reads int
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	return c.now
}

func (c *testClock) Sleep(d time.Duration) { c.advance(d) }

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// peek is Now without counting.
func (c *testClock) peek() (now time.Time, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now, c.reads
}

// sinkRun is one runSink under test: a deployment with nothing in it but a
// clock and a SinkMaxAge, a buffered sink of fixed size 1000 over dst, and
// the one input edge the test writes.
type sinkRun struct {
	t     *testing.T
	d     *Deployment
	clock *testClock
	reg   *obs.Registry
	sink  *bufferedSink
	in    *stream.Stream
	ctr   *ops.Counters
	done  chan error
}

func newSinkRun(t *testing.T, dst BatchSink, size, edgeBuffer int) *sinkRun {
	clock := &testClock{now: t0}
	e := &Executor{cfg: Config{Clock: clock, SinkMaxAge: liveMaxAge}}
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg)
	ctr := &ops.Counters{}
	return &sinkRun{
		t:     t,
		d:     &Deployment{exec: e, sinkCtrs: map[string]*ops.Counters{"out": ctr}},
		clock: clock,
		reg:   reg,
		sink:  newBufferedSink(dst, size, time.Hour, e.met),
		in:    stream.New("src->out", sinkSchema, edgeBuffer),
		ctr:   ctr,
		done:  make(chan error, 1),
	}
}

func (r *sinkRun) now() time.Time {
	now, _ := r.clock.peek()
	return now
}

// start runs the sink's process; wait returns what it returned.
func (r *sinkRun) start() {
	go func() {
		r.done <- r.d.runSink(&dataflow.PlanNode{ID: "out", Kind: ops.KindSink}, r.sink, []*stream.Stream{r.in})
	}()
}

func (r *sinkRun) wait() error {
	r.t.Helper()
	select {
	case err := <-r.done:
		return err
	case <-time.After(10 * time.Second):
		r.t.Fatal("runSink did not return")
		return nil
	}
}

// barrier returns once every item sent before it has been processed. It
// needs an unbuffered edge: the sink's process takes the barrier — a
// watermark so old that it is skipped on the first comparison — only when
// it is done with the item before.
func (r *sinkRun) barrier() { r.in.SendWatermark(time.Time{}) }

// sinkFlushes reads streamloader_sink_flushes_total by reason, and lagCount
// the number of lag observations, off reg as /metrics would show them.
func sinkFlushes(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, s := range scrape(t, reg) {
		if s.Name == "streamloader_sink_flushes_total" {
			out[s.Labels["reason"]] = s.Value
		}
	}
	return out
}

func lagCount(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	for _, s := range scrape(t, reg) {
		if s.Name == "streamloader_sink_watermark_lag_seconds_count" {
			return s.Value
		}
	}
	t.Fatal("no streamloader_sink_watermark_lag_seconds in the exposition")
	return 0
}

func scrape(t *testing.T, reg *obs.Registry) []obs.Series {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	series, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func batchSizes(rec *recordingBatchSink) []int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	sizes := make([]int, len(rec.batches))
	for i, b := range rec.batches {
		sizes[i] = len(b)
	}
	return sizes
}

// A watermark within SinkMaxAge of the clock, with nothing queued behind it,
// ends the batch there and then.
func TestLiveWatermarkOnEmptyEdgeFlushesAtOnce(t *testing.T) {
	rec := &recordingBatchSink{}
	r := newSinkRun(t, rec, 1000, 0)
	r.start()
	r.in.Send(sinkTuple(0))
	r.in.Send(sinkTuple(1))
	r.in.SendWatermark(r.now().Add(-liveMaxAge + time.Millisecond))
	r.barrier()
	if got := batchSizes(rec); !slices.Equal(got, []int{2}) {
		t.Fatalf("after a live watermark on an empty edge the destination has batches %v, want [2]", got)
	}
	r.in.Send(sinkTuple(2))
	r.in.Close()
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if got := batchSizes(rec); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("batches %v, want [2 1]", got)
	}
	if f := sinkFlushes(t, r.reg); f["live"] != 1 || f["close"] != 1 || f["size"] != 0 || f["age"] != 0 {
		t.Errorf("flushes by reason = %v, want live 1, close 1", f)
	}
	if n := lagCount(t, r.reg); n != 1 {
		t.Errorf("lag observed %v times, want once (the one clock read)", n)
	}
	if r.ctr.In.Load() != 3 || r.ctr.Out.Load() != 3 || r.ctr.Dropped.Load() != 0 {
		t.Errorf("sink counters in/out/dropped = %d/%d/%d, want 3/3/0", r.ctr.In.Load(), r.ctr.Out.Load(), r.ctr.Dropped.Load())
	}
}

// A watermark SinkMaxAge or more behind the clock ends nothing, and after
// the first one the clock is not even read: that is what a replay pays.
func TestStaleWatermarkDoesNotFlush(t *testing.T) {
	rec := &recordingBatchSink{}
	r := newSinkRun(t, rec, 1000, 0)
	r.start()
	stale := r.now().Add(-liveMaxAge) // lag == SinkMaxAge: not live
	for i := 0; i < 100; i++ {
		r.in.Send(sinkTuple(i))
		r.in.SendWatermark(stale.Add(-time.Duration(100-i) * time.Second))
	}
	r.in.SendWatermark(stale)
	r.barrier()
	if got := rec.total(); got != 0 {
		t.Fatalf("stale watermarks flushed %d tuples", got)
	}
	if _, n := r.clock.peek(); n != 1 {
		t.Errorf("101 stale watermarks read the clock %d times, want 1", n)
	}
	// The clock moving on makes the comparison stale, not wrong: a live
	// watermark is later than any remembered bound.
	r.clock.advance(time.Hour)
	r.in.SendWatermark(r.now())
	r.barrier()
	if got := batchSizes(rec); !slices.Equal(got, []int{100}) {
		t.Fatalf("batches %v after the stream turned live, want [100]", got)
	}
	r.in.Close()
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if f := sinkFlushes(t, r.reg); f["live"] != 1 || f["close"] != 0 {
		t.Errorf("flushes by reason = %v, want live 1 and nothing left for close", f)
	}
}

// A live watermark with items queued behind it ends nothing: what follows
// will share the batch.
func TestLiveWatermarkWithQueuedItemsDoesNotFlush(t *testing.T) {
	rec := &recordingBatchSink{}
	r := newSinkRun(t, rec, 1000, 16)
	now := r.now()
	r.in.Send(sinkTuple(0))
	r.in.SendWatermark(now)
	r.in.Send(sinkTuple(1))
	r.in.SendWatermark(now)
	r.in.Close() // EOS is queued behind the last watermark too
	r.start()
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if got := batchSizes(rec); !slices.Equal(got, []int{2}) {
		t.Fatalf("batches %v, want one batch of 2 at close", got)
	}
	if f := sinkFlushes(t, r.reg); f["live"] != 0 || f["close"] != 1 {
		t.Errorf("flushes by reason = %v, want close 1 only", f)
	}
	if _, n := r.clock.peek(); n != 0 {
		t.Errorf("clock read %d times with the edge never empty, want 0", n)
	}
}

// A failed live flush is a failed flush like any other: re-buffered in
// order, recorded, retried by the next flush, shed from only at maxBacklog
// batches, and reported by Close while it stands.
func TestLiveFlushFailureIsRetried(t *testing.T) {
	flaky := &flakyBatchSink{failN: 1}
	r := newSinkRun(t, flaky, 1000, 0)
	r.start()
	live := func() { r.in.SendWatermark(r.now()) }
	r.in.Send(sinkTuple(0))
	live()
	r.barrier()
	r.sink.mu.Lock()
	buffered, flushErr := len(r.sink.buf), r.sink.flushErr
	r.sink.mu.Unlock()
	if buffered != 1 || flushErr == nil || flaky.total() != 0 {
		t.Fatalf("after a failed live flush: %d buffered, flushErr %v, %d delivered; want 1, an error, 0",
			buffered, flushErr, flaky.total())
	}
	r.in.Send(sinkTuple(1))
	live()
	r.barrier()
	r.sink.mu.Lock()
	buffered, flushErr = len(r.sink.buf), r.sink.flushErr
	r.sink.mu.Unlock()
	if buffered != 0 || flushErr != nil {
		t.Fatalf("after the retry: %d buffered, flushErr %v; want 0, nil", buffered, flushErr)
	}
	if got := batchSizes(&flaky.recordingBatchSink); !slices.Equal(got, []int{2}) {
		t.Fatalf("batches %v, want the failed tuple and the next in one batch", got)
	}
	flaky.mu.Lock()
	first := flaky.batches[0][0].MustGet("v").AsFloat()
	flaky.mu.Unlock()
	if first != 0 {
		t.Errorf("retried batch starts at tuple %v, want 0: accept order", first)
	}
	r.in.Close()
	if err := r.wait(); err != nil {
		t.Fatal(err)
	}
	if f := sinkFlushes(t, r.reg); f["live"] != 2 {
		t.Errorf("flushes by reason = %v, want live 2 (the failure and the retry)", f)
	}

	// A destination that never recovers: the backlog stops at maxBacklog
	// batches, the rest is shed and counted, Close reports the failure.
	const size = 2
	r = newSinkRun(t, failingBatchSink{}, size, 0)
	r.start()
	for i := 0; i < 3*maxBacklog*size; i++ {
		r.in.Send(sinkTuple(i))
		r.in.SendWatermark(r.now())
	}
	r.barrier()
	r.sink.mu.Lock()
	buffered = len(r.sink.buf)
	r.sink.mu.Unlock()
	if buffered != maxBacklog*size {
		t.Errorf("backlog holds %d tuples, want maxBacklog*size = %d", buffered, maxBacklog*size)
	}
	r.in.Close()
	if err := r.wait(); err == nil {
		t.Error("Close after a persistent failure must report it")
	}
	if in, out, dropped := r.ctr.In.Load(), r.ctr.Out.Load(), r.ctr.Dropped.Load(); in != 3*maxBacklog*size || out != maxBacklog*size || dropped != in-out {
		t.Errorf("sink counters in/out/dropped = %d/%d/%d, want %d/%d/%d",
			in, out, dropped, 3*maxBacklog*size, maxBacklog*size, 2*maxBacklog*size)
	}
}

// A replay keeps its batches: N tuples into a sink of fixed size B are
// ceil(N/B) AcceptBatch calls, as before the rule existed, none of them a
// live flush. A replay is a past range under the wall clock (its watermarks
// are years stale: at most one clock read) or any range under a
// VirtualClock (which the sources move themselves, so every watermark equals
// it: the rule is off, no clock read at all).
func TestReplayBatchesUnchanged(t *testing.T) {
	for name, clock := range map[string]stream.Clock{
		"wall clock, past range": stream.WallClock{},
		"virtual clock":          stream.NewVirtualClock(t0),
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1")})
			rec := &recordingBatchSink{}
			cfg := r.exec.cfg
			cfg.Clock = clock
			cfg.SinkBatch = 64
			cfg.SinkMaxAge = time.Hour
			cfg.Sinks = func(kind, nodeID string, schema *stt.Schema) (Sink, error) { return rec, nil }
			exec, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			exec.RegisterMetrics(reg)
			d, err := exec.Deploy(&dataflow.Spec{
				Name: "replay",
				Nodes: []dataflow.NodeSpec{
					{ID: "src", Kind: "source", Sensor: "temp-1"},
					{ID: "out", Kind: "sink", Sink: "warehouse"},
				},
				Edges: []dataflow.EdgeSpec{{From: "src", To: "out"}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Undeploy()
			const n = 1000
			if err := d.Run(t0, t0.Add(n*time.Second)); err != nil {
				t.Fatal(err)
			}
			var want []int
			for left := n; left > 0; left -= 64 {
				want = append(want, min(left, 64))
			}
			if got := batchSizes(rec); !slices.Equal(got, want) {
				t.Fatalf("replay of %d tuples made batches %v, want %v", n, got, want)
			}
			if f := sinkFlushes(t, reg); f["size"] != 15 || f["close"] != 1 || f["live"] != 0 || f["age"] != 0 {
				t.Errorf("flushes by reason = %v, want size 15, close 1", f)
			}
			if c := lagCount(t, reg); c > 1 {
				t.Errorf("replay read the clock %v times, want at most once", c)
			}
		})
	}
}

// unlockedSink is a factory sink that relies on its caller for exclusion, as
// the Sink interface lets it; -race sees two inputs accepting at once.
type unlockedSink struct{ n int }

func (s *unlockedSink) Accept(*stt.Tuple) error { s.n++; return nil }
func (s *unlockedSink) Close() error            { return nil }

// Two coordinated sources into one sink, over edges that hold two items: the
// sink must read both inputs at once. Reading them one after the other, the
// second source blocks on its full edge, the coordinator holds the first
// source back for it, and the run never ends.
func TestSinkReadsItsInputsConcurrently(t *testing.T) {
	for _, kind := range []string{"collect", "viz"} {
		t.Run(kind, func(t *testing.T) {
			r := newRig(t, 2, []sensor.Spec{tempSpec("temp-1"), tempSpec("temp-2")})
			cfg := r.exec.cfg
			cfg.Buffer = 2
			plain := &unlockedSink{}
			cfg.Sinks = func(string, string, *stt.Schema) (Sink, error) { return plain, nil }
			exec, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d, err := exec.Deploy(&dataflow.Spec{
				Name: "two-in-" + kind,
				Nodes: []dataflow.NodeSpec{
					{ID: "a", Kind: "source", Sensor: "temp-1"},
					{ID: "b", Kind: "source", Sensor: "temp-2"},
					{ID: "out", Kind: "sink", Sink: kind},
				},
				Edges: []dataflow.EdgeSpec{{From: "a", To: "out"}, {From: "b", To: "out", Port: 1}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Undeploy()
			done := make(chan error, 1)
			go func() { done <- d.Run(t0, t0.Add(10*time.Minute)) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				d.Stop()
				t.Fatal("run stalled: the sink is not draining its second input")
			}
			got := plain.n
			if kind == "collect" {
				got = len(d.Collected("out"))
			}
			if got != 1200 {
				t.Fatalf("sink received %d tuples, want 600 from each source", got)
			}
		})
	}
}
