package ops

import (
	"time"

	"streamloader/internal/stt"
)

// Fanout returns an emitter that hands each item to every one of outs in
// turn, in the caller's goroutine; a single out is returned as it is.
func Fanout(outs ...Emitter) Emitter {
	if len(outs) == 1 {
		return outs[0]
	}
	return fanout(outs)
}

type fanout []Emitter

func (f fanout) Send(t *stt.Tuple) {
	for _, o := range f {
		o.Send(t)
	}
}

func (f fanout) SendWatermark(ts time.Time) {
	for _, o := range f {
		o.SendWatermark(ts)
	}
}

func (f fanout) Close() {
	for _, o := range f {
		o.Close()
	}
}

// Stage returns an emitter that applies m to each tuple and emits the result
// into next: a non-blocking operation run inside its producer's process. A
// Map error ends the operation as an error ends a blocking operation's Run:
// fail receives it once, nothing more is emitted, further input is
// discarded, and next still sees the close.
func Stage(m Mapper, next Emitter, fail func(error)) Emitter {
	return &stage{op: m, next: next, fail: fail}
}

type stage struct {
	op     Mapper
	next   Emitter
	fail   func(error)
	failed bool
}

func (s *stage) Send(t *stt.Tuple) {
	if s.failed {
		return
	}
	res, err := s.op.Map(t)
	if err != nil {
		s.failed = true
		s.fail(err)
		return
	}
	if res != nil {
		s.next.Send(res)
	}
}

func (s *stage) SendWatermark(ts time.Time) {
	if !s.failed {
		s.next.SendWatermark(ts)
	}
}

func (s *stage) Close() { s.next.Close() }
