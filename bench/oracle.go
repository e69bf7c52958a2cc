package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamloader/internal/geo"
	"streamloader/internal/sensor"
	"streamloader/internal/stt"
)

// oracle is the correctness reference. It regenerates the corpus for the
// run's seed by calling sensor.New(spec).At(ts) in schedule order, keeps the
// raw readings compactly (one or two floats per event), and derives from
// them, with naive code of its own, what the store must hold: the settled
// count of every replayed range, the page a select must return, the rows an
// aggregate or a view frame must carry.
//
// Replayed history is contiguous from baseTime in whole minutes; tick k of
// every source is due at baseTime + k*period.
type oracle struct {
	chain  bool
	period time.Duration
	tpm    int // ticks per minute
	srcs   []*oracleSource
	ticks  int // ticks regenerated so far

	// chain-mem side branches.
	left, right, rain *oracleSource
}

type oracleSource struct {
	spec   sensor.Spec
	gen    *sensor.Sensor
	floats []string // names of the float fields, in schema order
	label  string   // name of the string field
	raw    []float64
	seg    []uint8 // traffic only: the segment number of each event
	chain  chainDef

	kept   []int32 // chain-mem: per minute, events the filter keeps
	culled []int32 // chain-mem join inputs: ticks the cull keeps
	credit int64   // the cull's credit accumulator, in billionths
}

func newOracle(w workload, specs []sensor.Spec) (*oracle, error) {
	o := &oracle{chain: w.chain}
	for _, spec := range specs {
		gen, err := sensor.New(spec)
		if err != nil {
			return nil, err
		}
		src := &oracleSource{spec: spec, gen: gen}
		sch := gen.Schema()
		for i := 0; i < sch.NumFields(); i++ {
			if f := sch.Field(i); f.Kind == stt.KindFloat {
				src.floats = append(src.floats, f.Name)
			} else {
				src.label = f.Name
			}
		}
		if w.chain {
			src.chain = chainFor(spec)
		}
		o.period = gen.Period()
		o.srcs = append(o.srcs, src)
		switch spec.ID {
		case joinLeft:
			o.left = src
		case joinRight:
			o.right = src
		case aggSource:
			o.rain = src
		}
	}
	if time.Minute%o.period != 0 {
		return nil, fmt.Errorf("period %v does not divide a minute", o.period)
	}
	o.tpm = int(time.Minute / o.period)
	return o, nil
}

func (o *oracle) minuteStart(m int) time.Time { return baseTime.Add(time.Duration(m) * time.Minute) }

// extend regenerates history up to the start of minute m.
func (o *oracle) extend(m int) {
	upto := m * o.tpm
	keepPerBillion := int64(math.Round((1 - joinCullRate) * 1e9))
	for _, s := range o.srcs {
		for k := o.ticks; k < upto; k++ {
			t := s.gen.At(baseTime.Add(time.Duration(k) * o.period))
			for i := range s.floats {
				s.raw = append(s.raw, t.Values[i].AsFloat())
			}
			if s.spec.Type == sensor.TypeTraffic {
				str := t.Values[len(s.floats)].String()
				n, _ := strconv.Atoi(str[len(str)-2:])
				s.seg = append(s.seg, uint8(n))
			}
			if !o.chain {
				continue
			}
			if k%o.tpm == 0 {
				s.kept = append(s.kept, 0)
			}
			if s.filterKeeps(k) {
				s.kept[k/o.tpm]++
			}
			if s == o.left || s == o.right {
				if s.credit += keepPerBillion; s.credit >= 1e9 {
					s.credit -= 1e9
					s.culled = append(s.culled, int32(k))
				}
			}
		}
	}
	o.ticks = upto
}

// liveKept regenerates the `ticks` readings each source emits over the live
// range starting at `from`, which must follow all replayed history and a
// newDeployment. It returns per source the ticks whose events reach the
// store under the source's own name — all of them, or on chain-mem those the
// filter keeps — and how many tuples the filters and culls drop.
func (o *oracle) liveKept(from time.Time, ticks int) (map[string][]int, int64) {
	keepPerBillion := int64(math.Round((1 - joinCullRate) * 1e9))
	out := map[string][]int{}
	drops := int64(0)
	for _, s := range o.srcs {
		kept := make([]int, 0, ticks)
		for k := 0; k < ticks; k++ {
			t := s.gen.At(from.Add(time.Duration(k) * o.period))
			if !o.chain {
				kept = append(kept, k)
				continue
			}
			v, _ := t.Get(s.chain.field)
			if x := v.AsFloat() * s.chain.scale; x-math.Floor(x) < 0.75 {
				kept = append(kept, k)
			} else {
				drops++
			}
			if s == o.left || s == o.right {
				if s.credit += keepPerBillion; s.credit >= 1e9 {
					s.credit -= 1e9
				} else {
					drops++
				}
			}
		}
		out[s.spec.ID] = kept
	}
	return out, drops
}

func (s *oracleSource) value(k int, field string) float64 {
	for i, name := range s.floats {
		if name == field {
			return s.raw[k*len(s.floats)+i]
		}
	}
	panic("bench: source " + s.spec.ID + " has no field " + field)
}

func (s *oracleSource) filterKeeps(k int) bool {
	x := s.value(k, s.chain.field) * s.chain.scale
	return x-math.Floor(x) < 0.75
}

// expEvent is one event the store must hold, as the naive model sees it.
type expEvent struct {
	source string
	num    map[string]float64
	str    map[string]string
}

// raw event k of the source, as the sensor emitted it.
func (s *oracleSource) event(k int) expEvent {
	e := expEvent{source: s.spec.ID, num: map[string]float64{}, str: map[string]string{}}
	for i, name := range s.floats {
		e.num[name] = s.raw[k*len(s.floats)+i]
	}
	if s.spec.Type == sensor.TypeTraffic {
		e.str[s.label] = fmt.Sprintf("seg-%s-%02d", s.spec.ID, s.seg[k])
	} else {
		e.str[s.label] = s.spec.ID
	}
	return e
}

// chained applies the source's operator chain to a kept event.
func (s *oracleSource) chained(k int) expEvent {
	e := s.event(k)
	c := s.chain
	conv, err := geo.ConvertUnit(e.num[c.convert], c.fromUnit, c.toUnit)
	if err != nil {
		panic(err)
	}
	e.num[c.convert] = conv
	e.str["site"] = e.str[c.label]
	delete(e.str, c.label)
	e.num[c.vpName] = c.vp(e.num)
	return e
}

// joinMatches reports whether the chain-mem join predicate holds.
func (o *oracle) joinMatches(l, r int) bool {
	t, h := o.left.value(l, "temperature"), o.right.value(r, "humidity")
	return t-math.Floor(t) < h-math.Floor(h)
}

// newDeployment notes that the next replayed range runs on freshly built
// operators: the culls start with no credit.
func (o *oracle) newDeployment() {
	for _, s := range o.srcs {
		s.credit = 0
	}
}

// drops is how many tuples the filters and culls drop over minutes
// [from, to); no other operator may drop any.
func (o *oracle) drops(from, to int) int64 {
	if !o.chain {
		return 0
	}
	n := int64(0)
	for _, s := range o.srcs {
		for m := from; m < to; m++ {
			n += int64(o.tpm) - int64(s.kept[m])
			if s == o.left || s == o.right {
				n += int64(o.tpm) - int64(len(s.culledIn(m, o.tpm)))
			}
		}
	}
	return n
}

// culledIn returns the ticks of minute m the join input's cull keeps.
func (s *oracleSource) culledIn(m, tpm int) []int32 {
	lo := sort.Search(len(s.culled), func(i int) bool { return int(s.culled[i]) >= m*tpm })
	hi := sort.Search(len(s.culled), func(i int) bool { return int(s.culled[i]) >= (m+1)*tpm })
	return s.culled[lo:hi]
}

// joinCount is how many tuples the join emits for minute m.
func (o *oracle) joinCount(m int) int {
	n := 0
	for _, l := range o.left.culledIn(m, o.tpm) {
		for _, r := range o.right.culledIn(m, o.tpm) {
			if o.joinMatches(int(l), int(r)) {
				n++
			}
		}
	}
	return n
}

// stored is how many events the store gains from replaying minutes
// [from, to): what the sinks append, after filters, join and aggregate.
func (o *oracle) stored(from, to int) int64 {
	if !o.chain {
		return int64(to-from) * int64(o.tpm) * int64(len(o.srcs))
	}
	var n int64
	for m := from; m < to; m++ {
		for _, s := range o.srcs {
			n += int64(s.kept[m])
		}
		n += int64(o.joinCount(m)) + 1 // one windowed-average row per minute
	}
	return n
}

// generated is how many readings the sources emit over minutes [from, to).
func (o *oracle) generated(from, to int) int64 {
	return int64(to-from) * int64(o.tpm) * int64(len(o.srcs))
}

// minute returns, per source, the events the store must hold with event
// time minute m, in the order that source's sink appended them.
func (o *oracle) minute(m int) map[string][]expEvent {
	out := map[string][]expEvent{}
	for _, s := range o.srcs {
		list := make([]expEvent, 0, o.tpm)
		for k := m * o.tpm; k < (m+1)*o.tpm; k++ {
			switch {
			case !o.chain:
				list = append(list, s.event(k))
			case s.filterKeeps(k):
				list = append(list, s.chained(k))
			}
		}
		out[s.spec.ID] = list
	}
	if !o.chain {
		return out
	}
	var joined []expEvent
	for _, l := range o.left.culledIn(m, o.tpm) {
		for _, r := range o.right.culledIn(m, o.tpm) {
			if !o.joinMatches(int(l), int(r)) {
				continue
			}
			le, re := o.left.event(int(l)), o.right.event(int(r))
			le.source = joinLeft + "+" + joinRight
			le.num["humidity"] = re.num["humidity"]
			le.str["right_station"] = re.str["station"]
			joined = append(joined, le)
		}
	}
	out[joinLeft+"+"+joinRight] = joined
	sum := 0.0
	for k := m * o.tpm; k < (m+1)*o.tpm; k++ {
		sum += o.rain.value(k, "rain_rate")
	}
	out[aggNode] = []expEvent{{source: aggNode,
		num: map[string]float64{"avg_rain_rate": sum / float64(o.tpm)},
		str: map[string]string{"gauge": aggSource}}}
	return out
}

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// selectReply is the body of GET /api/warehouse/query.
type selectReply struct {
	Count     int  `json:"count"`
	Truncated bool `json:"truncated"`
	Events    []struct {
		Event map[string]any `json:"event"`
	} `json:"events"`
}

// checkSelect compares one select page over minute m, fetched with the
// given limit, against the naive model. All events of a minute share one
// event time, so the page is the first `limit` of them in append order:
// per source, a prefix of what that source's sink appended.
func (o *oracle) checkSelect(body []byte, m, limit int) error {
	var rep selectReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("select minute %d: %w", m, err)
	}
	want := o.minute(m)
	total := 0
	for _, list := range want {
		total += len(list)
	}
	if wantN := min(total, limit); rep.Count != wantN || len(rep.Events) != wantN {
		return fmt.Errorf("select minute %d: %d events (count %d), want %d", m, len(rep.Events), rep.Count, wantN)
	}
	if rep.Truncated != (total > limit) {
		return fmt.Errorf("select minute %d: truncated=%v with %d matches", m, rep.Truncated, total)
	}
	wantTime := o.minuteStart(m).Format(time.RFC3339Nano)
	next := map[string]int{}
	for i, ev := range rep.Events {
		src, _ := ev.Event["_source"].(string)
		if ts, _ := ev.Event["_time"].(string); ts != wantTime {
			return fmt.Errorf("select minute %d: event %d has time %q", m, i, ts)
		}
		j := next[src]
		if j >= len(want[src]) {
			return fmt.Errorf("select minute %d: extra event %d from %q", m, j, src)
		}
		if err := want[src][j].matches(ev.Event); err != nil {
			return fmt.Errorf("select minute %d: event %d of %s: %w", m, j, src, err)
		}
		next[src] = j + 1
	}
	if !rep.Truncated {
		for src, list := range want {
			if next[src] != len(list) {
				return fmt.Errorf("select minute %d: %d events of %s, want %d", m, next[src], src, len(list))
			}
		}
	}
	return nil
}

func (e expEvent) matches(got map[string]any) error {
	payload := 0
	for name := range got {
		if !strings.HasPrefix(name, "_") {
			payload++
		}
	}
	if payload != len(e.num)+len(e.str) {
		return fmt.Errorf("has %d payload fields, want %d", payload, len(e.num)+len(e.str))
	}
	for name, want := range e.num {
		if v, ok := got[name].(float64); !ok || !closeTo(v, want) {
			return fmt.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	for name, want := range e.str {
		if v, ok := got[name].(string); !ok || v != want {
			return fmt.Errorf("%s = %v, want %q", name, got[name], want)
		}
	}
	return nil
}

// aggReply is the body of GET /api/warehouse/aggregate.
type aggReply struct {
	Rows []viewRow `json:"rows"`
}

// avgRows is the naive re-aggregation behind the aggregate shape and the
// standing view: AVG(temperature) per (minute, source) over minutes
// [from, to). Every event of a minute carries the minute as its event time,
// so any bucket width that divides a minute yields these rows.
func (o *oracle) avgRows(from, to int) []viewRow {
	var rows []viewRow
	for m := from; m < to; m++ {
		bucket := o.minuteStart(m).Format(time.RFC3339Nano)
		if !o.chain {
			for _, s := range o.srcs {
				if s.spec.Type != sensor.TypeTemperature {
					continue
				}
				sum := 0.0
				for k := m * o.tpm; k < (m+1)*o.tpm; k++ {
					sum += s.value(k, "temperature")
				}
				rows = append(rows, viewRow{Bucket: bucket, Source: s.spec.ID, Count: int64(o.tpm), Value: sum / float64(o.tpm)})
			}
			continue
		}
		for src, list := range o.minute(m) {
			sum, n := 0.0, int64(0)
			for _, e := range list {
				if v, ok := e.num["temperature"]; ok {
					sum += v
					n++
				}
			}
			if n > 0 {
				rows = append(rows, viewRow{Bucket: bucket, Source: src, Count: n, Value: sum / float64(n)})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Bucket != rows[j].Bucket {
			return rows[i].Bucket < rows[j].Bucket
		}
		return rows[i].Source < rows[j].Source
	})
	return rows
}

func checkRows(what string, got, want []viewRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
	}
	got = append([]viewRow(nil), got...)
	sort.Slice(got, func(i, j int) bool {
		if got[i].Bucket != got[j].Bucket {
			return got[i].Bucket < got[j].Bucket
		}
		return got[i].Source < got[j].Source
	})
	for i, w := range want {
		g := got[i]
		if g.Bucket != w.Bucket || g.Source != w.Source || g.Count != w.Count || !closeTo(g.Value, w.Value) {
			return fmt.Errorf("%s: row %d is %+v, want %+v", what, i, g, w)
		}
	}
	return nil
}

func (o *oracle) checkAggregate(body []byte, from, to int) error {
	var rep aggReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("aggregate minutes %d..%d: %w", from, to, err)
	}
	return checkRows(fmt.Sprintf("aggregate minutes %d..%d", from, to), rep.Rows, o.avgRows(from, to))
}
