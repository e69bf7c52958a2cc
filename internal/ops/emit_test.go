package ops

import (
	"strings"
	"testing"
	"time"

	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

func TestFanoutReachesEveryConsumerInOrder(t *testing.T) {
	a := stream.New("a", weatherSchema(), 8)
	b := stream.New("b", weatherSchema(), 8)
	if one := Fanout(a); one != Emitter(a) {
		t.Errorf("Fanout of one emitter = %T, want the emitter itself", one)
	}
	out := Fanout(a, b)
	tup := wtuple(0, 20, "x")
	out.Send(tup)
	out.SendWatermark(tup.Time)
	out.Close()
	for _, s := range []*stream.Stream{a, b} {
		items := stream.CollectItems(s)
		if len(items) != 3 || items[0].Tuple != tup || items[1].Kind != stream.ItemWatermark || items[2].Kind != stream.ItemEOS {
			t.Errorf("stream %s saw %v, want the tuple, its watermark, EOS", s.Name, items)
		}
	}
	Fanout().Send(tup) // an unconsumed output is a no-op, not a panic
}

func TestStageAppliesMapAndEndsOnItsError(t *testing.T) {
	op, err := NewFilter("f", "1 / (_seq - 2) < 5 && temperature > 25", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	out := stream.New("o", op.OutSchema(), 16)
	var failures []error
	st := Stage(op, out, func(err error) { failures = append(failures, err) })
	var sent []*stt.Tuple
	for i, temp := range []float64{30, 20, 30, 30, 30} { // seq 1 is filtered out, seq 2 fails
		tup := wtuple(time.Duration(i)*time.Second, temp, "x")
		tup.Seq = uint64(i)
		sent = append(sent, tup)
		st.Send(tup)
		st.SendWatermark(tup.Time)
	}
	st.Close()
	items := stream.CollectItems(out)
	// Tuple 0 and the watermarks of 0 and 1, nothing from the failure on,
	// then the close.
	if len(items) != 4 || items[0].Tuple != sent[0] || items[1].Kind != stream.ItemWatermark ||
		items[2].Kind != stream.ItemWatermark || items[3].Kind != stream.ItemEOS {
		t.Errorf("downstream saw %v", items)
	}
	if len(failures) != 1 || !strings.Contains(failures[0].Error(), "f: ") {
		t.Errorf("failures = %v, want the one Map error, naming the operation", failures)
	}
	if in, outN, dropped := op.Counters().Snapshot(); in != 3 || outN != 1 || dropped != 1 {
		t.Errorf("counters = %d %d %d, want 3 1 1: input after the failure is discarded uncounted", in, outN, dropped)
	}
}
