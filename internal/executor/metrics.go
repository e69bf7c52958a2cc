package executor

import "streamloader/internal/obs"

// flushReason says what ended a buffered sink's batch; see bufferedSink.
type flushReason uint8

const (
	flushSize flushReason = iota
	flushAge
	flushLive
	flushClose
	numFlushReasons
)

var flushReasonNames = [numFlushReasons]string{"size", "age", "live", "close"}

// sinkMetrics are the sink-side series of /metrics. The zero value holds
// nil handles, which obs makes no-ops.
type sinkMetrics struct {
	// flushes counts the batches handed to a buffered sink's destination,
	// by what ended them.
	flushes [numFlushReasons]*obs.Counter
	// lag is how far a watermark trailed the clock when the live rule
	// compared the two, the lower bound of how stale a subscriber's view
	// of that stream is.
	lag *obs.Histogram
}

// RegisterMetrics exposes the executor's sink series through reg:
// streamloader_sink_flushes_total{reason="size"|"age"|"live"|"close"} and
// the streamloader_sink_watermark_lag_seconds histogram. Call it before the
// first Run, as server.New does; runs started earlier report nothing.
func (e *Executor) RegisterMetrics(reg *obs.Registry) {
	for r, name := range flushReasonNames {
		e.met.flushes[r] = reg.CounterWith("streamloader_sink_flushes_total", obs.Labels("reason", name),
			"Batches a buffered sink handed to its destination, by what ended the batch.")
	}
	e.met.lag = reg.Histogram("streamloader_sink_watermark_lag_seconds",
		"Clock time minus watermark where a sink decides whether its stream is live (a replay's lag is capped at one hour).")
}
