package executor

import (
	"sync"
	"time"

	"streamloader/internal/stt"
)

// collectSink gathers tuples into the deployment for inspection, the
// destination tests and the design environment use. Each sink owns its
// buffer and lock, so parallel sinks of one deployment never contend on
// the shared Deployment.mu; readers merge on read via Collected.
type collectSink struct {
	mu  sync.Mutex
	buf []*stt.Tuple
}

// Accept stores the tuple.
func (s *collectSink) Accept(t *stt.Tuple) error {
	s.mu.Lock()
	s.buf = append(s.buf, t)
	s.mu.Unlock()
	return nil
}

// Close is a no-op; collected tuples stay available after the run.
func (s *collectSink) Close() error { return nil }

// snapshot copies the collected tuples.
func (s *collectSink) snapshot() []*stt.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*stt.Tuple, len(s.buf))
	copy(out, s.buf)
	return out
}

// discardSink drops everything (throughput benchmarks).
type discardSink struct{}

// Accept drops the tuple.
func (discardSink) Accept(*stt.Tuple) error { return nil }

// Close is a no-op.
func (discardSink) Close() error { return nil }

// BatchSink is the optional capability of a Sink to accept many tuples in
// one call (the warehouse implements it via AppendBatch). Factory sinks
// exposing it are wrapped in a buffering sink, so dataflows stop paying
// one sink lock round-trip per tuple.
type BatchSink interface {
	Sink
	AcceptBatch([]*stt.Tuple) error
}

// bufferedSink batches tuples in front of a BatchSink. A batch ends — is
// handed to the destination in one AcceptBatch — for one of four reasons,
// counted in streamloader_sink_flushes_total{reason}:
//
//   - size: the buffer reached the batch size. This is what ends a batch
//     under load (a replay, a burst): each flush amortizes the
//     destination's lock round-trip over up to thousands of tuples.
//   - live: the sink's process (Deployment.runSink) saw a watermark that is
//     within maxAge of the clock on an input edge with nothing queued behind
//     it. The stream is live and there is nothing left to coalesce with, so
//     the event lands now: sink latency is the path, not a timer. A replay
//     never flushes this way (its watermarks are far behind the clock), nor
//     does a live stream that is falling behind (its edge is not empty, or
//     its watermarks lag by maxAge or more): both keep their batches.
//   - age: the maxAge tick. It bounds what the two rules above leave
//     behind — the tail of a burst on a stream that then stalls, a batch
//     whose flush failed — to ~2×maxAge of wall time.
//   - close: Close drains, so a completed run always observes its full
//     output downstream.
//
// The batch size is either fixed (a positive size at construction) or
// adaptive: an EWMA of tuples accepted per age interval, clamped to
// [minAdaptiveBatch, maxAdaptiveBatch], so a heavy stream grows its batches
// towards one per age tick. It is only the size rule's threshold; how soon a
// slow stream's events land is the live rule's business, not the floor's.
//
// A failed flush loses nothing, whatever ended the batch: it is re-buffered
// and retried on the next size trigger, live watermark, age tick or Close,
// so a transient destination error is invisible once the tuples eventually
// land. Only when the destination keeps failing does the sink shed load —
// Accept rejects new tuples once the backlog reaches maxBacklog flushes'
// worth — and Close reports the failure rather than success.
type bufferedSink struct {
	dst      BatchSink
	met      sinkMetrics
	ticker   *time.Ticker
	done     chan struct{}
	loopDone chan struct{}

	// flushMu serializes flushes end to end (take buffer, hand to dst,
	// re-buffer on failure), so a failed batch cannot interleave with a
	// concurrent successful flush of newer tuples — which would both
	// reorder delivery and clear flushErr while the failed batch is still
	// parked in buf, disarming the maxBacklog shed gate.
	flushMu sync.Mutex

	mu       sync.Mutex
	buf      []*stt.Tuple
	size     int // current flush threshold; fixed, or retuned per age tick
	adaptive bool
	accepted int     // tuples accepted since the last rate sample
	rate     float64 // EWMA of tuples per age interval
	flushErr error   // latest unresolved flush failure; cleared when the backlog lands
	// failedAccepts counts Accepts since the last retry while flushErr is
	// set: the destination is retried once every size accepts — not per
	// tuple (a retry storm), and not only on age ticks (which would keep a
	// full backlog shedding long after the destination recovers).
	failedAccepts int
}

// maxBacklog bounds the re-buffered backlog to this many full batches
// before Accept starts shedding.
const maxBacklog = 4

// Adaptive batch sizing bounds and smoothing.
const (
	minAdaptiveBatch = 32
	maxAdaptiveBatch = 4096
	// adaptiveStart seeds the EWMA before the first rate sample; it is the
	// old fixed default, so a sink behaves identically until it has
	// observed real traffic.
	adaptiveStart = 256
	// adaptiveAlpha weights the newest interval in the EWMA: high enough
	// to follow a workload shift within a few age ticks, low enough that
	// one bursty interval does not whipsaw the batch size.
	adaptiveAlpha = 0.3
)

// newBufferedSink wraps dst; maxAge must be positive. A positive size fixes
// the flush threshold; size <= 0 selects adaptive sizing from the observed
// arrival rate. Flushes are counted in met (the zero value counts nothing).
func newBufferedSink(dst BatchSink, size int, maxAge time.Duration, met sinkMetrics) *bufferedSink {
	b := &bufferedSink{
		dst:      dst,
		met:      met,
		size:     size,
		ticker:   time.NewTicker(maxAge),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	if size <= 0 {
		b.adaptive = true
		b.size = adaptiveStart
		b.rate = adaptiveStart
	}
	go b.ageLoop()
	return b
}

// ageLoop flushes any buffered tuples on each tick until Close; each tick
// also retries a re-buffered backlog and, in adaptive mode, retunes the
// batch size from the interval's arrival count. flush records any failure
// itself.
func (b *bufferedSink) ageLoop() {
	defer close(b.loopDone)
	for {
		select {
		case <-b.done:
			return
		case <-b.ticker.C:
			b.adapt()
			_ = b.flush(flushAge)
		}
	}
}

// adapt folds the last interval's arrivals into the rate EWMA and resizes
// the flush threshold to it, clamped. One batch per age interval is the
// equilibrium: slower streams flush by age at whatever has arrived, faster
// ones flush by size a few times per tick with maximal batches.
func (b *bufferedSink) adapt() {
	if !b.adaptive {
		return
	}
	b.mu.Lock()
	n := b.accepted
	b.accepted = 0
	b.rate = adaptiveAlpha*float64(n) + (1-adaptiveAlpha)*b.rate
	size := int(b.rate + 0.5)
	if size < minAdaptiveBatch {
		size = minAdaptiveBatch
	}
	if size > maxAdaptiveBatch {
		size = maxAdaptiveBatch
	}
	b.size = size
	b.mu.Unlock()
}

// Accept buffers the tuple, flushing the batch once it reaches size. A
// flush failure keeps the batch buffered for a later retry, so nothing is
// lost and Accept stays nil; only when the destination keeps failing and
// the backlog is full does Accept shed the tuple, returning the recorded
// error so the caller counts the drop.
func (b *bufferedSink) Accept(t *stt.Tuple) error {
	b.mu.Lock()
	b.accepted++ // arrival-rate sample for adaptive sizing, shed or not
	if b.flushErr != nil {
		b.failedAccepts++
		retry := b.failedAccepts >= b.size
		if retry {
			b.failedAccepts = 0
		}
		full := len(b.buf) >= maxBacklog*b.size
		if !full {
			b.buf = append(b.buf, t)
		}
		err := b.flushErr
		b.mu.Unlock()
		if retry && b.flush(flushSize) == nil {
			if full {
				// The backlog just drained: room for the shed tuple after all.
				b.mu.Lock()
				b.buf = append(b.buf, t)
				b.mu.Unlock()
			}
			return nil
		}
		if full {
			// Re-check before shedding: a concurrent flush (age tick or
			// another Accept's retry) may have drained the backlog since
			// the snapshot above, in which case the tuple fits after all.
			b.mu.Lock()
			if b.flushErr == nil || len(b.buf) < maxBacklog*b.size {
				b.buf = append(b.buf, t)
				b.mu.Unlock()
				return nil
			}
			err = b.flushErr
			b.mu.Unlock()
			return err
		}
		return nil
	}
	b.buf = append(b.buf, t)
	ripe := len(b.buf) >= b.size
	b.mu.Unlock()
	if ripe {
		_ = b.flush(flushSize) // failure is re-buffered and recorded, not a loss
	}
	return nil
}

// flush hands the buffered tuples to the destination, for the given reason.
// On failure the batch is put back at the front of the buffer — preserving
// accept order — and the error is recorded for Close; on success any
// recorded error is cleared, because the tuples it covered have now landed.
func (b *bufferedSink) flush(why flushReason) error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	batch := b.buf
	b.buf = nil
	b.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	b.met.flushes[why].Inc()
	if err := b.dst.AcceptBatch(batch); err != nil {
		b.mu.Lock()
		b.buf = append(batch, b.buf...)
		b.flushErr = err
		b.mu.Unlock()
		return err
	}
	b.mu.Lock()
	b.flushErr = nil
	b.mu.Unlock()
	return nil
}

// Close drains the buffer and closes the destination. It waits out any
// in-flight age flush first, so every accepted tuple has reached the
// destination by the time Close returns. The final drain is one last retry
// of any failed backlog: if it succeeds, the earlier failure is moot; if
// not, Close reports it instead of success.
func (b *bufferedSink) Close() error {
	b.ticker.Stop()
	close(b.done)
	<-b.loopDone
	err := b.flush(flushClose)
	b.mu.Lock()
	if err == nil {
		err = b.flushErr
	}
	b.mu.Unlock()
	if cerr := b.dst.Close(); err == nil {
		err = cerr
	}
	return err
}
