package sensor

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"streamloader/internal/geo"
)

// TestAtIsPinned pins what At generates for seed 1: a digest of the first
// 500 readings of every sensor type and both unit variants. The readings are
// the bench oracle's corpus, so a change to a generator that moves one value
// or one draw from the random stream fails here first.
func TestAtIsPinned(t *testing.T) {
	const want = "ccda1425fa81aeca"
	h := fnv.New64a()
	for _, typ := range AllTypes {
		for variant := 0; variant < 2; variant++ {
			s, err := New(Spec{ID: fmt.Sprintf("%s-%d", typ, variant), Type: typ,
				Location: geo.OsakaCenter, Seed: 1, UnitVariant: variant})
			if err != nil {
				t.Fatal(err)
			}
			for i, ts := 0, t0; i < 500; i, ts = i+1, ts.Add(s.Period()) {
				tup := s.At(ts)
				fmt.Fprintf(h, "%s|%s|%s|%d\n", typ, tup, tup.Time.Format(time.RFC3339Nano), tup.Seq)
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("At's readings for seed 1 digest to %s, want %s", got, want)
	}
}
