package executor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamloader/internal/stt"
)

var sinkSchema = stt.MustSchema([]stt.Field{
	stt.NewField("v", stt.KindFloat, ""),
}, stt.GranSecond, stt.SpatPoint, "test")

func sinkTuple(i int) *stt.Tuple {
	tup := &stt.Tuple{
		Schema: sinkSchema,
		Values: []stt.Value{stt.Float(float64(i))},
		Time:   time.Date(2016, 3, 15, 0, 0, i, 0, time.UTC),
		Lat:    34.7, Lon: 135.5,
		Theme:  "test",
		Source: "s-1",
	}
	return tup.AlignSTT()
}

// recordingBatchSink records the batch sizes it receives.
type recordingBatchSink struct {
	mu      sync.Mutex
	batches [][]*stt.Tuple
	closed  bool
}

func (r *recordingBatchSink) Accept(t *stt.Tuple) error { return r.AcceptBatch([]*stt.Tuple{t}) }

func (r *recordingBatchSink) AcceptBatch(ts []*stt.Tuple) error {
	r.mu.Lock()
	cp := make([]*stt.Tuple, len(ts))
	copy(cp, ts)
	r.batches = append(r.batches, cp)
	r.mu.Unlock()
	return nil
}

func (r *recordingBatchSink) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}

func (r *recordingBatchSink) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.batches {
		n += len(b)
	}
	return n
}

func TestBufferedSinkSizeFlush(t *testing.T) {
	rec := &recordingBatchSink{}
	b := newBufferedSink(rec, 4, time.Hour, sinkMetrics{})
	for i := 0; i < 10; i++ {
		if err := b.Accept(sinkTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	rec.mu.Lock()
	flushed := len(rec.batches)
	rec.mu.Unlock()
	if flushed != 2 { // two full batches of 4; 2 tuples still buffered
		t.Fatalf("flushed %d batches, want 2", flushed)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.total(); got != 10 {
		t.Fatalf("after close %d tuples delivered, want 10", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !rec.closed {
		t.Error("Close must close the destination")
	}
	// Batch order must preserve accept order.
	i := 0
	for _, batch := range rec.batches {
		for _, tup := range batch {
			if tup.MustGet("v").AsFloat() != float64(i) {
				t.Fatalf("tuple %d out of order", i)
			}
			i++
		}
	}
}

func TestBufferedSinkAgeFlush(t *testing.T) {
	rec := &recordingBatchSink{}
	b := newBufferedSink(rec, 1000, 5*time.Millisecond, sinkMetrics{})
	if err := b.Accept(sinkTuple(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for rec.total() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age flush never happened")
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferedSinkFlushError(t *testing.T) {
	fail := &failingBatchSink{}
	b := newBufferedSink(fail, 1000, time.Hour, sinkMetrics{})
	if err := b.Accept(sinkTuple(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err == nil {
		t.Fatal("Close must surface the drain failure")
	}
}

type failingBatchSink struct{}

func (failingBatchSink) Accept(*stt.Tuple) error        { return fmt.Errorf("boom") }
func (failingBatchSink) AcceptBatch([]*stt.Tuple) error { return fmt.Errorf("boom") }
func (failingBatchSink) Close() error                   { return nil }

// flakyBatchSink fails its first failN AcceptBatch calls, then delegates to
// the embedded recorder.
type flakyBatchSink struct {
	recordingBatchSink
	mu2   sync.Mutex
	calls int
	failN int
}

func (f *flakyBatchSink) AcceptBatch(ts []*stt.Tuple) error {
	f.mu2.Lock()
	f.calls++
	fail := f.calls <= f.failN
	f.mu2.Unlock()
	if fail {
		return fmt.Errorf("transient boom %d", f.calls)
	}
	return f.recordingBatchSink.AcceptBatch(ts)
}

// TestBufferedSinkFlushRetry is the regression test for the mid-run flush
// bug: a failed size-triggered flush used to drop the whole batch on the
// floor while Close still reported success. The batch must instead be
// retried until it lands, with nothing lost, duplicated or reordered.
func TestBufferedSinkFlushRetry(t *testing.T) {
	flaky := &flakyBatchSink{failN: 2}
	b := newBufferedSink(flaky, 4, time.Hour, sinkMetrics{})
	for i := 0; i < 10; i++ {
		if err := b.Accept(sinkTuple(i)); err != nil {
			t.Fatalf("accept %d: %v (mid-run flush failures must not surface per tuple)", i, err)
		}
	}
	flaky.mu2.Lock()
	attempts := flaky.calls
	flaky.mu2.Unlock()
	if attempts < 2 {
		t.Fatalf("only %d flush attempts; the failed batch was never retried mid-run", attempts)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close = %v, want success after the drain retry lands", err)
	}
	if got := flaky.total(); got != 10 {
		t.Fatalf("delivered %d tuples, want all 10 despite two failed flushes", got)
	}
	i := 0
	for _, batch := range flaky.batches {
		for _, tup := range batch {
			if tup.MustGet("v").AsFloat() != float64(i) {
				t.Fatalf("tuple %d out of order after retry", i)
			}
			i++
		}
	}
}

// TestBufferedSinkAgeFlushRetries: a backlog from a failed flush must be
// retried by the age ticker, not parked until Close.
func TestBufferedSinkAgeFlushRetries(t *testing.T) {
	flaky := &flakyBatchSink{failN: 1}
	b := newBufferedSink(flaky, 2, 5*time.Millisecond, sinkMetrics{})
	for i := 0; i < 2; i++ {
		if err := b.Accept(sinkTuple(i)); err != nil { // first flush fails
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for flaky.total() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("age ticker never retried the failed batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedSinkRecoveryAfterBacklogFull: even once the backlog is full
// and Accept is shedding, the destination must still be retried on the
// accept path (not just age ticks), so a recovery drains the backlog and
// later tuples flow again; every accept is either delivered or was shed
// with an error — never silently lost.
func TestBufferedSinkRecoveryAfterBacklogFull(t *testing.T) {
	flaky := &flakyBatchSink{failN: 6}
	b := newBufferedSink(flaky, 2, time.Hour, sinkMetrics{}) // age ticks never fire in-test
	shed := 0
	for i := 0; i < 14; i++ {
		if err := b.Accept(sinkTuple(i)); err != nil {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("full backlog never shed")
	}
	if flaky.total() == 0 {
		t.Fatal("destination recovered but the backlog was never retried from Accept")
	}
	if err := b.Accept(sinkTuple(14)); err != nil {
		t.Fatalf("post-recovery accept: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close after recovery = %v, want success", err)
	}
	if got := flaky.total() + shed; got != 15 {
		t.Errorf("delivered %d + shed %d = %d, want 15 accounted", flaky.total(), shed, got)
	}
}

// TestBufferedSinkPersistentFailure: when the destination never recovers,
// the sink must shed (surfacing the error per Accept once the backlog is
// full) and Close must report the failure, never success.
func TestBufferedSinkPersistentFailure(t *testing.T) {
	b := newBufferedSink(failingBatchSink{}, 2, time.Hour, sinkMetrics{})
	var shed int
	for i := 0; i < 20; i++ {
		if err := b.Accept(sinkTuple(i)); err != nil {
			shed++
		}
	}
	if shed == 0 {
		t.Error("a persistently failing destination must surface shed tuples via Accept")
	}
	if shed >= 20 {
		t.Error("the backlog must hold some tuples for retry, not shed everything")
	}
	if err := b.Close(); err == nil {
		t.Fatal("Close must report the unflushed backlog, not success")
	}
}

// TestBufferedSinkAdaptiveSizing drives an adaptive sink (size 0) at a
// known rate and checks the batch size tracks it: heavy traffic grows the
// threshold toward the arrivals-per-interval rate, silence shrinks it back
// down, and the clamp bounds always hold.
func TestBufferedSinkAdaptiveSizing(t *testing.T) {
	rec := &recordingBatchSink{}
	b := newBufferedSink(rec, 0, time.Hour, sinkMetrics{}) // ticks driven manually via adapt()
	if !b.adaptive || b.size != adaptiveStart {
		t.Fatalf("adaptive sink starts size=%d adaptive=%v, want %d/true", b.size, b.adaptive, adaptiveStart)
	}

	// Sustained heavy intervals: ~10000 arrivals per tick must saturate at
	// the clamp ceiling, not track the raw rate.
	for tick := 0; tick < 12; tick++ {
		for i := 0; i < 10000; i++ {
			if err := b.Accept(sinkTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		b.adapt()
	}
	b.mu.Lock()
	heavy := b.size
	b.mu.Unlock()
	if heavy != maxAdaptiveBatch {
		t.Fatalf("after heavy intervals size = %d, want clamp %d", heavy, maxAdaptiveBatch)
	}

	// Silence: the EWMA decays and the size floors at the clamp minimum.
	for tick := 0; tick < 40; tick++ {
		b.adapt()
	}
	b.mu.Lock()
	quiet := b.size
	b.mu.Unlock()
	if quiet != minAdaptiveBatch {
		t.Fatalf("after quiet intervals size = %d, want clamp %d", quiet, minAdaptiveBatch)
	}

	// A moderate steady rate settles near the rate itself.
	for tick := 0; tick < 20; tick++ {
		for i := 0; i < 500; i++ {
			if err := b.Accept(sinkTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		b.adapt()
	}
	b.mu.Lock()
	steady := b.size
	b.mu.Unlock()
	if steady < 400 || steady > 600 {
		t.Fatalf("steady 500/interval settled at size %d, want ~500", steady)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Conservation across all the resizing: every accepted tuple landed.
	if got := rec.total(); got != 12*10000+20*500 {
		t.Fatalf("delivered %d tuples, want %d", got, 12*10000+20*500)
	}
}

// TestBufferedSinkFixedSizeStaysFixed: an explicit size must never be
// retuned by the age loop.
func TestBufferedSinkFixedSizeStaysFixed(t *testing.T) {
	rec := &recordingBatchSink{}
	b := newBufferedSink(rec, 7, time.Hour, sinkMetrics{})
	for i := 0; i < 100; i++ {
		if err := b.Accept(sinkTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.adapt() // a tick on a fixed-size sink is a no-op
	b.mu.Lock()
	size := b.size
	b.mu.Unlock()
	if size != 7 {
		t.Fatalf("fixed sink resized to %d", size)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectSinksDoNotShareLocks(t *testing.T) {
	// Two collect sinks of one deployment accept concurrently; each buffers
	// under its own lock and Collected merges on read.
	d := &Deployment{collectors: map[string]*collectSink{}}
	a, b := d.collector("a"), d.collector("b")
	if d.collector("a") != a {
		t.Fatal("collector must be reused across calls")
	}
	var wg sync.WaitGroup
	for _, s := range []*collectSink{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := s.Accept(sinkTuple(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(d.Collected("a")); got != 500 {
		t.Errorf("collected a = %d", got)
	}
	if got := len(d.Collected("b")); got != 500 {
		t.Errorf("collected b = %d", got)
	}
	if got := d.Collected("missing"); len(got) != 0 {
		t.Errorf("unknown sink = %v", got)
	}
}
