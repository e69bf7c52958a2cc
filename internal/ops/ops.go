// Package ops implements the stream-processing operations of the paper's
// Table 1: Aggregation, Cull Time, Cull Space, Filter, Join, Transform,
// Trigger On, Trigger Off and Virtual Property.
//
// Operations come in the two shapes of the paper's §3. Non-blocking
// operations (filter, cull-time/space, transform, virtual property) are
// "applied directly on each tuple": each is a Mapper, a per-tuple function
// the engine calls inside whichever process produced the tuple. Blocking
// operations (aggregation, trigger, join) maintain a cache of tuples that is
// processed every t time interval, driven by event-time watermarks; each runs
// as one process (goroutine) consuming input streams. Every operation writes
// to an Emitter, so what follows it — a channel into the next process, or the
// next per-tuple function — is the engine's choice, not the operation's.
//
// Every Operator also has a Run that drives it from input streams; for a
// Mapper it is a thin adapter over Map, used by tests and benchmarks that
// time one operation alone.
package ops

import (
	"fmt"
	"sync/atomic"
	"time"

	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// Kind identifies an operation of Table 1.
type Kind string

// The operation kinds. Source and Sink are the pseudo-operations that bind
// a dataflow to sensors and destinations; they are placed by the executor.
const (
	KindFilter     Kind = "filter"
	KindTransform  Kind = "transform"
	KindVirtual    Kind = "virtual_property"
	KindCullTime   Kind = "cull_time"
	KindCullSpace  Kind = "cull_space"
	KindAggregate  Kind = "aggregate"
	KindJoin       Kind = "join"
	KindTriggerOn  Kind = "trigger_on"
	KindTriggerOff Kind = "trigger_off"
	KindSource     Kind = "source"
	KindSink       Kind = "sink"
)

// Blocking reports whether the operation kind maintains a window cache
// (paper §3: aggregation, trigger and join are blocking; the others are
// applied directly on each tuple).
func (k Kind) Blocking() bool {
	switch k {
	case KindAggregate, KindJoin, KindTriggerOn, KindTriggerOff:
		return true
	default:
		return false
	}
}

// Valid reports whether k names a deployable operation kind.
func (k Kind) Valid() bool {
	switch k {
	case KindFilter, KindTransform, KindVirtual, KindCullTime, KindCullSpace,
		KindAggregate, KindJoin, KindTriggerOn, KindTriggerOff, KindSource, KindSink:
		return true
	default:
		return false
	}
}

// Counters exposes the running tuple counts of one operation process. The
// monitor samples them to compute the tuples/second figures of the paper's
// Figure 3.
type Counters struct {
	In      atomic.Uint64 // tuples consumed
	Out     atomic.Uint64 // tuples produced
	Dropped atomic.Uint64 // tuples culled/filtered/invalidated
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() (in, out, dropped uint64) {
	return c.In.Load(), c.Out.Load(), c.Dropped.Load()
}

// Emitter is the output side of an operation: tuples and watermarks in
// event-time order, then Close exactly once. *stream.Stream is the emitter
// that crosses into another goroutine; the engine composes others (fan-out,
// the next Mapper) that stay in the caller's.
type Emitter interface {
	Send(*stt.Tuple)
	SendWatermark(time.Time)
	Close()
}

// Operator is one operation of a dataflow.
type Operator interface {
	// Name is the dataflow-unique operation name.
	Name() string
	// Kind is the Table 1 operation this process implements.
	Kind() Kind
	// OutSchema is the schema of the produced stream.
	OutSchema() *stt.Schema
	// Counters exposes the live tuple counters.
	Counters() *Counters
	// Run consumes the inputs until EOS and closes out, on the caller's
	// goroutine. It may be called again once it has returned: per-run state
	// (window caches, watermarks) starts fresh, counters accumulate.
	Run(in []*stream.Stream, out Emitter) error
}

// Mapper is a non-blocking operation: a function of one tuple, with no
// state the watermark drives.
type Mapper interface {
	Operator
	// Map applies the operation to one tuple and counts it. A nil tuple
	// with a nil error means the tuple was dropped.
	Map(*stt.Tuple) (*stt.Tuple, error)
}

// base carries the common operator identity.
type base struct {
	name     string
	kind     Kind
	out      *stt.Schema
	counters Counters
}

func (b *base) Name() string           { return b.name }
func (b *base) Kind() Kind             { return b.kind }
func (b *base) OutSchema() *stt.Schema { return b.out }
func (b *base) Counters() *Counters    { return &b.counters }

// mapOp is the shared shape of the non-blocking operations: fn decides a
// tuple's fate (nil to drop) — every non-blocking operation of Table 1 is a
// special case — and Map and Run are derived from it.
type mapOp struct {
	base
	fn func(*stt.Tuple) (*stt.Tuple, error)
}

// Map applies the operation to one tuple, maintaining the counters.
func (o *mapOp) Map(t *stt.Tuple) (*stt.Tuple, error) {
	o.counters.In.Add(1)
	res, err := o.fn(t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.name, err)
	}
	if res == nil {
		o.counters.Dropped.Add(1)
		return nil, nil
	}
	o.counters.Out.Add(1)
	return res, nil
}

// Run maps every tuple of the single input and forwards watermarks
// unchanged.
func (o *mapOp) Run(in []*stream.Stream, out Emitter) error {
	defer out.Close()
	if len(in) != 1 {
		return fmt.Errorf("%s: want exactly 1 input, got %d", o.name, len(in))
	}
	for item := range in[0].C {
		switch item.Kind {
		case stream.ItemTuple:
			res, err := o.Map(item.Tuple)
			if err != nil {
				return err
			}
			if res != nil {
				out.Send(res)
			}
		case stream.ItemWatermark:
			out.SendWatermark(item.Watermark)
		}
	}
	return nil
}

// windowIndex maps an event time to its window ordinal for a given interval.
// Negative times floor toward minus infinity so windows are stable across
// the epoch.
func windowIndex(ts time.Time, interval time.Duration) int64 {
	n := ts.UnixNano()
	i := n / int64(interval)
	if n < 0 && n%int64(interval) != 0 {
		i--
	}
	return i
}

// windowStart returns the start instant of window i.
func windowStart(i int64, interval time.Duration) time.Time {
	return time.Unix(0, i*int64(interval)).UTC()
}

// watermarkMerger tracks per-input watermarks and yields the combined
// (minimum) watermark across inputs that have not reached EOS. Once an
// input ends its watermark is treated as +infinity.
type watermarkMerger struct {
	marks []time.Time
	ended []bool
}

func newWatermarkMerger(n int) *watermarkMerger {
	return &watermarkMerger{marks: make([]time.Time, n), ended: make([]bool, n)}
}

// update records a watermark for input i and returns the combined watermark
// plus whether it is defined (it is undefined until every open input has
// reported at least once).
func (m *watermarkMerger) update(i int, ts time.Time) (time.Time, bool) {
	if ts.After(m.marks[i]) {
		m.marks[i] = ts
	}
	return m.combined()
}

// end marks input i as finished.
func (m *watermarkMerger) end(i int) (time.Time, bool) {
	m.ended[i] = true
	return m.combined()
}

func (m *watermarkMerger) combined() (time.Time, bool) {
	var combined time.Time
	first := true
	for i := range m.marks {
		if m.ended[i] {
			continue
		}
		if m.marks[i].IsZero() {
			return time.Time{}, false // an open input has not reported yet
		}
		if first || m.marks[i].Before(combined) {
			combined = m.marks[i]
			first = false
		}
	}
	if first {
		// All inputs ended: everything may flush.
		return time.Unix(0, 1<<62).UTC(), true
	}
	return combined, true
}

// allEnded reports whether every input reached EOS.
func (m *watermarkMerger) allEnded() bool {
	for _, e := range m.ended {
		if !e {
			return false
		}
	}
	return true
}
