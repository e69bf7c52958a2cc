// Package stream provides the event-driven primitives StreamLoader
// dataflows are built from: items flowing over channels, event-time
// watermarks that drive the "every t time intervals" semantics of the
// blocking operations, and clocks for live versus replay execution.
//
// A Stream is the edge between two goroutines. Not every edge of a dataflow
// is one: the engine lays a channel only where two processes meet (into a
// blocking operation, into a sink) and calls the non-blocking operations in
// between as functions, through the Send/SendWatermark/Close interface that
// *Stream also satisfies (ops.Emitter).
//
// A stream carries three item kinds, in order:
//
//   - Tuple items: the STT events themselves;
//   - Watermark items: a promise that no tuple with an earlier event time
//     will follow, which is what lets blocking operators (aggregation, join,
//     trigger) flush their window caches deterministically. At a sink a
//     watermark also ends the batch being buffered for the destination, when
//     it is within the sink's maximum age of the clock and the edge behind
//     it is empty: the stream is live and has nothing more to add to the
//     batch (executor.Deployment.runSink);
//   - a final EOS item, after which the channel is closed.
//
// Watermarks make replay runs (tests, benchmarks, sample debugging) produce
// exactly the same output as live runs: in live mode the source derives
// watermarks from the wall clock, in replay mode from the generated event
// times.
package stream

import (
	"fmt"
	"time"

	"streamloader/internal/stt"
)

// ItemKind discriminates the payload of an Item.
type ItemKind uint8

// Item kinds.
const (
	ItemTuple ItemKind = iota
	ItemWatermark
	ItemEOS
)

func (k ItemKind) String() string {
	switch k {
	case ItemTuple:
		return "tuple"
	case ItemWatermark:
		return "watermark"
	case ItemEOS:
		return "eos"
	default:
		return fmt.Sprintf("item(%d)", uint8(k))
	}
}

// Item is one unit flowing on a stream.
type Item struct {
	Kind      ItemKind
	Tuple     *stt.Tuple // set when Kind == ItemTuple
	Watermark time.Time  // set when Kind == ItemWatermark
}

// TupleItem wraps a tuple.
func TupleItem(t *stt.Tuple) Item { return Item{Kind: ItemTuple, Tuple: t} }

// WatermarkItem wraps a watermark.
func WatermarkItem(ts time.Time) Item { return Item{Kind: ItemWatermark, Watermark: ts} }

// EOSItem is the end-of-stream marker.
func EOSItem() Item { return Item{Kind: ItemEOS} }

// DefaultBuffer is the default channel capacity of a stream edge: deep
// enough that a producer rarely parks on a consumer that is momentarily
// behind, at 256 items x 40 B per edge. BenchmarkAblation_Buffer (A3, root
// bench_test.go) sweeps it from 1 to 4096.
const DefaultBuffer = 256

// Stream is a typed edge between two dataflow processes (goroutines).
type Stream struct {
	// Name identifies the edge in logs and monitoring ("filter1->join2").
	Name string
	// Schema is the shape of the tuples on this edge.
	Schema *stt.Schema
	// C carries the items. The producer closes it after sending EOS.
	C chan Item
}

// New builds a stream with the given buffer capacity (0 = synchronous).
func New(name string, schema *stt.Schema, buffer int) *Stream {
	if buffer < 0 {
		buffer = DefaultBuffer
	}
	return &Stream{Name: name, Schema: schema, C: make(chan Item, buffer)}
}

// Send places a tuple on the stream.
func (s *Stream) Send(t *stt.Tuple) { s.C <- TupleItem(t) }

// SendWatermark places a watermark on the stream.
func (s *Stream) SendWatermark(ts time.Time) { s.C <- WatermarkItem(ts) }

// Close sends EOS and closes the channel. It must be called exactly once,
// by the producer.
func (s *Stream) Close() {
	s.C <- EOSItem()
	close(s.C)
}

// Drain consumes and discards everything remaining on the stream. Useful in
// error paths so upstream producers do not block forever.
func (s *Stream) Drain() {
	for range s.C {
	}
}

// Collect reads the stream to EOS and returns all tuples, for tests and
// sample debugging.
func Collect(s *Stream) []*stt.Tuple {
	var out []*stt.Tuple
	for item := range s.C {
		if item.Kind == ItemTuple {
			out = append(out, item.Tuple)
		}
	}
	return out
}

// CollectItems reads the stream to EOS and returns every item including
// watermarks, for tests that check watermark propagation.
func CollectItems(s *Stream) []Item {
	var out []Item
	for item := range s.C {
		out = append(out, item)
	}
	return out
}
