package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/executor"
	"streamloader/internal/expr"
	"streamloader/internal/geo"
	"streamloader/internal/network"
	"streamloader/internal/obs"
	"streamloader/internal/ops"
	"streamloader/internal/partial"
	"streamloader/internal/persist"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
	"streamloader/internal/warehouse"
)

const (
	// microTicksNominal is how many readings per source the in-process
	// measurements regenerate from the seed at the committed run length:
	// enough for stable means, small enough that part (B) takes ~3 s.
	microTicksNominal = 20000
	// microChunks is how many equal chunks the corpus is measured in. Every
	// figure is the median of the chunks'.
	microChunks = 5
)

// micro is part (B) of a traced run: the workload's corpus is regenerated
// from the seed and pushed through each layer's public functions in the
// driver's own process, single-threaded, with a span around each call. The
// results are the isolated costs the budget subtracts from
// ingest_cpu_us_per_event.
type micro struct {
	r      *run
	specs  []sensor.Spec
	corpus [][]*stt.Tuple // per source, in schedule order
	out    map[string]float64
	each   map[string][]float64 // the chunks' figures behind out
	dir    string
	chunk  int // readings per source in one chunk
}

// timed runs f under a span and returns how long it took.
func (m *micro) timed(name string, f func()) time.Duration {
	sp := m.r.tr.start(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.end()
	return d
}

// sample records one chunk's d/items, in ns, under name; out holds the
// median of the chunks recorded so far.
func (m *micro) sample(name string, d time.Duration, items int) {
	m.each[name] = append(m.each[name], float64(d)/float64(max(items, 1)))
	m.out[name] = median(m.each[name])
}

// chunks calls f with the bounds of each chunk of the corpus in turn. The
// driver's heap is collected before each chunk: a chunk is milliseconds of
// work, and a collection of everything the run has gathered, landing inside
// one, would be charged to whichever function was being timed.
func (m *micro) chunks(f func(lo, hi int) error) error {
	for c := 0; c < microChunks; c++ {
		runtime.GC()
		if err := f(c*m.chunk, (c+1)*m.chunk); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) microbench() (map[string]float64, error) {
	sp := r.tr.enter("phase.micro")
	defer sp.end()
	dir, err := os.MkdirTemp(r.workdir, "micro-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m := &micro{r: r, out: map[string]float64{}, each: map[string][]float64{}, dir: dir, chunk: max(100, r.scaled(microTicksNominal)/microChunks)}
	netw, err := network.Build("star", network.TopologyConfig{Nodes: 8, Area: geo.Osaka, Capacity: 100, Seed: r.seed})
	if err != nil {
		return nil, err
	}
	m.specs = fleetSpecs(r.seed, r.hz, netw.Nodes())
	for _, step := range []func() error{m.sensors, m.pubsub, m.stream, m.operators, m.dataflow,
		m.executor, m.warehouse, m.partial, m.persist, m.obs} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	// sample keeps ns; these three are reported in coarser units.
	m.out["pubsub.discover_us"] /= 1e3
	m.out["dataflow.compile_ms"] /= 1e6
	m.out["dataflow.validate_ms"] /= 1e6
	return m.out, nil
}

func (m *micro) newFleet() (*pubsub.Broker, map[string]*sensor.Sensor, error) {
	broker := pubsub.NewBroker("micro")
	sensors := map[string]*sensor.Sensor{}
	for _, spec := range m.specs {
		s, err := sensor.New(spec)
		if err != nil {
			return nil, nil, err
		}
		if err := broker.Publish(s.Meta()); err != nil {
			return nil, nil, err
		}
		sensors[s.ID()] = s
	}
	return broker, sensors, nil
}

func (m *micro) sensors() error {
	_, sensors, err := m.newFleet()
	if err != nil {
		return err
	}
	m.corpus = make([][]*stt.Tuple, len(m.specs))
	return m.chunks(func(lo, hi int) error {
		d := m.timed("sensor.At", func() {
			for i, spec := range m.specs {
				s := sensors[spec.ID]
				period := s.Period()
				for k := lo; k < hi; k++ {
					m.corpus[i] = append(m.corpus[i], s.At(baseTime.Add(time.Duration(k)*period)))
				}
			}
		})
		m.sample("sensor.at_ns_per_event", d, (hi-lo)*len(m.specs))
		return nil
	})
}

func (m *micro) pubsub() error {
	broker, _, err := m.newFleet()
	if err != nil {
		return err
	}
	for _, spec := range m.specs {
		if err := broker.Activate(spec.ID); err != nil {
			return err
		}
	}
	return m.chunks(func(lo, hi int) error {
		calls, active := (hi-lo)*len(m.specs), 0
		d := m.timed("pubsub.IsActive", func() {
			for i := 0; i < calls; i++ {
				if broker.IsActive(m.specs[i%len(m.specs)].ID) {
					active++
				}
			}
		})
		if active != calls {
			return fmt.Errorf("micro: %d of %d sensors active", active, calls)
		}
		m.sample("pubsub.is_active_ns", d, calls)
		const rounds = 100
		found := 0
		d = m.timed("pubsub.Discover", func() {
			for i := 0; i < rounds; i++ {
				found += len(broker.Discover(pubsub.Query{}))
				broker.Subscribe(pubsub.Query{}).Cancel()
			}
		})
		if found != rounds*len(m.specs) {
			return fmt.Errorf("micro: discover found %d sensors in %d rounds", found, rounds)
		}
		m.sample("pubsub.discover_us", d, rounds)
		return nil
	})
}

// stream measures one hop: Send on one goroutine, receive on another, over
// a stream of the default buffer, a watermark after every tuple as sources
// send them.
func (m *micro) stream() error {
	return m.chunks(func(lo, hi int) error {
		tuples := m.corpus[0][lo:hi]
		s := stream.New("hop", tuples[0].Schema, stream.DefaultBuffer)
		var wg sync.WaitGroup
		wg.Add(1)
		got := 0
		go func() {
			defer wg.Done()
			for range s.C {
				got++
			}
		}()
		d := m.timed("stream.Send", func() {
			for _, t := range tuples {
				s.Send(t)
				s.SendWatermark(t.Time)
			}
			s.Close()
			wg.Wait()
		})
		if got != 2*len(tuples)+1 {
			return fmt.Errorf("micro: hop delivered %d of %d items", got, 2*len(tuples)+1)
		}
		m.sample("stream.hop_ns_per_item", d, 2*len(tuples))
		return nil
	})
}

// prefilled returns a closed stream holding the tuples, then a watermark
// past the last one, then EOS: an operator's Run drains it without waiting.
func prefilled(name string, tuples []*stt.Tuple) *stream.Stream {
	var schema *stt.Schema
	if len(tuples) > 0 {
		schema = tuples[0].Schema
	}
	s := stream.New(name, schema, len(tuples)+2)
	for _, t := range tuples {
		s.Send(t)
	}
	s.SendWatermark(baseTime.Add(24 * time.Hour))
	s.Close()
	return s
}

// runOp times one Operator.Run over pre-filled inputs, records the time per
// input tuple under metric, and returns what the operator emitted. The
// output stream is deep enough to take everything.
func (m *micro) runOp(metric string, op ops.Operator, capacity int, ins ...[]*stt.Tuple) ([]*stt.Tuple, error) {
	streams := make([]*stream.Stream, len(ins))
	items := 0
	for i, in := range ins {
		streams[i] = prefilled(fmt.Sprintf("in%d", i), in)
		items += len(in)
	}
	out := stream.New("out", op.OutSchema(), capacity+4)
	var err error
	d := m.timed("ops."+string(op.Kind())+".Run", func() { err = op.Run(streams, out) })
	if err != nil {
		return nil, err
	}
	m.sample(metric, d, items)
	return stream.Collect(out), nil
}

// operators times the chain-mem operators, whatever the workload: they are
// the ops layer's cost, and on the durable workloads the prediction is that
// changing them moves nothing. Each chunk gets freshly compiled operators.
func (m *micro) operators() error {
	broker, _, err := m.newFleet()
	if err != nil {
		return err
	}
	chainW, _ := workloadByName("chain-mem")
	spec := buildSpec(chainW, m.specs)
	src := func(id string) int {
		for i, s := range m.specs {
			if s.ID == id {
				return i
			}
		}
		panic("micro: no source " + id)
	}
	c := chainFor(m.specs[0])
	kept, fed := 0, 0
	return m.chunks(func(lo, hi int) error {
		plan, diags := dataflow.Compile(spec, brokerResolver(broker), broker, nil)
		if diags.HasErrors() {
			return fmt.Errorf("micro: chain dataflow invalid: %v", diags)
		}
		// Source 0's chain, each operator fed what the one before it emitted.
		raw := m.corpus[0][lo:hi]
		filtered, err := m.runOp("ops.filter_ns_per_tuple", plan.Node("f0").Op, len(raw), raw)
		if err != nil {
			return err
		}
		transformed, err := m.runOp("ops.transform_ns_per_tuple", plan.Node("t0").Op, len(filtered), filtered)
		if err != nil {
			return err
		}
		if _, err := m.runOp("ops.virtual_property_ns_per_tuple", plan.Node("v0").Op, len(transformed), transformed); err != nil {
			return err
		}
		kept, fed = kept+len(filtered), fed+len(raw)
		m.out["micro.filter_pass_ratio"] = float64(kept) / float64(fed)

		if _, err := m.runOp("ops.aggregate_ns_per_tuple", plan.Node(aggNode).Op, hi-lo, m.corpus[src(aggSource)][lo:hi]); err != nil {
			return err
		}
		left, err := m.runOp("ops.cull_ns_per_tuple", plan.Node("cl").Op, hi-lo, m.corpus[src(joinLeft)][lo:hi])
		if err != nil {
			return err
		}
		right, err := m.runOp("ops.cull_ns_per_tuple", plan.Node("cr").Op, hi-lo, m.corpus[src(joinRight)][lo:hi])
		if err != nil {
			return err
		}
		if _, err := m.runOp("ops.join_ns_per_tuple", plan.Node(joinNode).Op, len(left)*len(right), left, right); err != nil {
			return err
		}

		// expr: the filter condition and the virtual property's
		// specification of source 0, evaluated directly.
		cond, err := expr.CompileBool(c.filterCond(), expr.Env{Schema: raw[0].Schema})
		if err != nil {
			return err
		}
		vp, err := expr.Compile(c.vpSpec, expr.Env{Schema: plan.Node("t0").OutSchema})
		if err != nil {
			return err
		}
		d := m.timed("expr.Eval", func() {
			for _, t := range raw {
				if _, err := cond.EvalBool(expr.Scope{Tuple: t}); err != nil {
					panic(err)
				}
			}
			for _, t := range transformed {
				if _, err := vp.EvalTuple(t); err != nil {
					panic(err)
				}
			}
		})
		m.sample("expr.eval_ns", d, len(raw)+len(transformed))
		return nil
	})
}

func brokerResolver(b *pubsub.Broker) dataflow.SensorResolver {
	return dataflow.ResolverFunc(func(id string) (*stt.Schema, bool) {
		meta, ok := b.Get(id)
		return meta.Schema, ok
	})
}

func (m *micro) dataflow() error {
	broker, _, err := m.newFleet()
	if err != nil {
		return err
	}
	spec := buildSpec(m.r.w, m.specs)
	const rounds = 4
	return m.chunks(func(int, int) error {
		var diags dataflow.Diagnostics
		d := m.timed("dataflow.Compile", func() {
			for i := 0; i < rounds; i++ {
				_, diags = dataflow.Compile(spec, brokerResolver(broker), broker, nil)
			}
		})
		if diags.HasErrors() {
			return fmt.Errorf("micro: dataflow invalid: %v", diags)
		}
		m.sample("dataflow.compile_ms", d, rounds)
		d = m.timed("dataflow.Validate", func() {
			for i := 0; i < rounds; i++ {
				diags = dataflow.Validate(spec, brokerResolver(broker))
			}
		})
		if diags.HasErrors() {
			return fmt.Errorf("micro: dataflow invalid: %v", diags)
		}
		m.sample("dataflow.validate_ms", d, rounds)
		return nil
	})
}

// batchRecorder wraps the warehouse sink behind the executor's buffering
// front and records what each AcceptBatch carries and takes.
type batchRecorder struct {
	warehouse.Sink
	mu    *sync.Mutex
	sizes *[]float64
	us    *[]float64
}

func (b batchRecorder) AcceptBatch(tuples []*stt.Tuple) error {
	t0 := time.Now()
	err := b.Sink.AcceptBatch(tuples)
	d := time.Since(t0)
	b.mu.Lock()
	*b.sizes = append(*b.sizes, float64(len(tuples)))
	*b.us = append(*b.us, float64(d)/1e3)
	b.mu.Unlock()
	return err
}

// deployInProcess runs a dataflow over `ticks` readings per source in this
// process, on a virtual clock, with the given sink factory.
func (m *micro) deployInProcess(spec *dataflow.Spec, sinks executor.SinkFactory, name string, ticks int) (time.Duration, error) {
	netw, err := network.Build("star", network.TopologyConfig{Nodes: 8, Area: geo.Osaka, Capacity: 100, Seed: m.r.seed})
	if err != nil {
		return 0, err
	}
	broker, sensors, err := m.newFleet()
	if err != nil {
		return 0, err
	}
	strat, err := network.NewStrategy("locality", m.r.seed)
	if err != nil {
		return 0, err
	}
	exec, err := executor.New(executor.Config{
		Network: netw, Broker: broker, Strategy: strat,
		Clock: stream.NewVirtualClock(baseTime),
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
		Sinks: sinks,
	})
	if err != nil {
		return 0, err
	}
	d, err := exec.Deploy(spec)
	if err != nil {
		return 0, err
	}
	defer d.Undeploy()
	period := sensors[m.specs[0].ID].Period()
	var runErr error
	took := m.timed(name, func() { runErr = d.Run(baseTime, baseTime.Add(time.Duration(ticks)*period)) })
	return took, runErr
}

func (m *micro) executor() error {
	spec := buildSpec(m.r.w, m.specs)
	discard := *spec
	discard.Nodes = append([]dataflow.NodeSpec(nil), spec.Nodes...)
	for i := range discard.Nodes {
		if discard.Nodes[i].Kind == "sink" {
			discard.Nodes[i].Sink = "discard"
		}
	}
	// Two whole minutes at a time, so that the blocking operators' windows
	// close as they do in the system run; the better of two runs.
	ticks := 2 * m.r.orc.tpm
	var sizes, us []float64
	for rep := 0; rep < 2; rep++ {
		d, err := m.deployInProcess(&discard, nil, "executor.Run.discard", ticks)
		if err != nil {
			return err
		}
		m.sample("executor.run_ns_per_event_discard", d, ticks*len(m.specs))

		wh := warehouse.NewWithConfig(warehouse.Config{})
		var mu sync.Mutex
		sinks := func(kind, nodeID string, schema *stt.Schema) (executor.Sink, error) {
			return batchRecorder{Sink: warehouse.Sink{W: wh}, mu: &mu, sizes: &sizes, us: &us}, nil
		}
		if _, err := m.deployInProcess(spec, sinks, "executor.Run.warehouse", ticks); err != nil {
			return err
		}
	}
	m.out["executor.sink_batch_events_p50"] = percentile(sizes, 0.5)
	m.out["executor.sink_accept_batch_us_p50"] = percentile(us, 0.5)
	return nil
}

// sinkBatch is the batch size the direct append measurements use: what the
// executor's buffering sink was seen to hand over.
func (m *micro) sinkBatch() int {
	if b := int(m.out["executor.sink_batch_events_p50"]); b > 0 {
		return b
	}
	return 256
}

// appendChunk appends one chunk of every source's corpus in batches, one
// source per batch as the per-source sinks do.
func (m *micro) appendChunk(name, metric string, wh *warehouse.Warehouse, lo, hi int) error {
	var err error
	batch := m.sinkBatch()
	d := m.timed(name, func() {
		for from := lo; from < hi && err == nil; from += batch {
			for _, tuples := range m.corpus {
				if err = wh.AppendBatch(tuples[from:min(from+batch, hi)]); err != nil {
					return
				}
			}
		}
	})
	m.sample(metric, d, (hi-lo)*len(m.corpus))
	return err
}

func (m *micro) warehouse() error {
	mem := warehouse.NewWithConfig(warehouse.Config{})
	// The same appends with the workload's standing view registered: the
	// difference is the fold on the tap.
	viewed := warehouse.NewWithConfig(warehouse.Config{})
	view, err := viewed.RegisterView(warehouse.AggQuery{
		Func: ops.AggAvg, Field: "temperature", GroupBy: []string{"source"}, Bucket: 10 * time.Second,
	}, ops.UpdatePolicy{Mode: ops.UpdateInterval, Every: 200 * time.Millisecond})
	if err != nil {
		return err
	}
	defer view.Release()
	cfg := warehouse.Config{DataDir: filepath.Join(m.dir, "wh"), Sync: persist.SyncInterval, HotSegments: 2}
	durable, err := warehouse.Open(cfg)
	if err != nil {
		return err
	}
	err = m.chunks(func(lo, hi int) error {
		if err := m.appendChunk("warehouse.AppendBatch.mem", "warehouse.append_batch_mem_ns_per_event", mem, lo, hi); err != nil {
			return err
		}
		if err := m.appendChunk("warehouse.AppendBatch.view", "micro.append_batch_view_ns_per_event", viewed, lo, hi); err != nil {
			return err
		}
		return m.appendChunk("warehouse.AppendBatch.durable", "warehouse.append_batch_durable_ns_per_event", durable, lo, hi)
	})
	if err != nil {
		return err
	}
	m.out["warehouse.view_fold_ns_per_event"] = m.out["micro.append_batch_view_ns_per_event"] - m.out["warehouse.append_batch_mem_ns_per_event"]

	durable.CloseHard()
	var reopened *warehouse.Warehouse
	d := m.timed("warehouse.Open.recover", func() { reopened, err = warehouse.Open(cfg) })
	if err != nil {
		return err
	}
	m.out["warehouse.open_recover_s"] = d.Seconds()
	if got, want := reopened.Len(), microChunks*m.chunk*len(m.corpus); got != want {
		return fmt.Errorf("micro: recovery brought back %d of %d events", got, want)
	}
	return reopened.Close()
}

func (m *micro) partial() error {
	// The standing view's shape: one group per temperature source and bucket.
	const buckets, maxGroups = 200, 1 << 20
	mk := func() (map[partial.Key]*partial.State, *partial.Store) {
		flat := map[partial.Key]*partial.State{}
		store := partial.NewStore(10 * time.Second)
		for b := 0; b < buckets; b++ {
			start := baseTime.Add(time.Duration(b) * time.Minute)
			for _, spec := range m.specs[:3] {
				k := partial.BucketKey(start, spec.ID, "")
				s := partial.New(start)
				s.Observe(float64(b))
				flat[k] = s
				store.Group(k, start, maxGroups).Observe(float64(b))
			}
		}
		return flat, store
	}
	src, store := mk()
	dst, _ := mk()
	return m.chunks(func(lo, hi int) error {
		n := (hi - lo) * 10
		st := partial.New(baseTime)
		d := m.timed("partial.Observe", func() {
			for i := 0; i < n; i++ {
				st.Observe(float64(i & 1023))
			}
		})
		m.sample("partial.observe_ns", d, n)
		const rounds = 10
		d = m.timed("partial.Merge", func() {
			for i := 0; i < rounds; i++ {
				partial.Merge(dst, src, maxGroups, true)
				store.MergeInto(dst, maxGroups, true, nil)
			}
		})
		m.sample("partial.merge_ns_per_group", d, 2*rounds*len(src))
		return nil
	})
}

func (m *micro) persist() error {
	walDir := filepath.Join(m.dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	wal, err := persist.OpenWAL(walDir, persist.WALOptions{Sync: persist.SyncInterval}, nil)
	if err != nil {
		return err
	}
	batch := m.sinkBatch()
	proj := persist.Projection{Mask: persist.ColTime | persist.ColSource, Field: "temperature"}
	err = m.chunks(func(lo, hi int) error {
		// One source's readings: what one shard logs and spills.
		events := make([]persist.Event, 0, hi-lo)
		for i, t := range m.corpus[0][lo:hi] {
			events = append(events, persist.Event{Seq: uint64(lo + i + 1), Tuple: t})
		}
		var err error
		d := m.timed("persist.WAL.Append", func() {
			for from := 0; from < len(events) && err == nil; from += batch {
				err = wal.Append(events[from:min(from+batch, len(events))])
			}
			if err == nil {
				err = wal.Sync()
			}
		})
		if err != nil {
			return err
		}
		m.sample("persist.wal_append_ns_per_event", d, len(events))

		path := filepath.Join(m.dir, persist.SegmentFileName(lo/m.chunk+1))
		d = m.timed("persist.WriteSegment", func() { _, err = persist.WriteSegment(path, events) })
		if err != nil {
			return err
		}
		m.sample("persist.segment_write_ns_per_event", d, len(events))
		si, _, err := persist.OpenSegment(path)
		if err != nil {
			return err
		}
		var got []persist.Event
		d = m.timed("persist.ReadRangeCached", func() { got, _, err = si.ReadRangeCached(nil, 0, si.Count) })
		if err != nil || len(got) != len(events) {
			return fmt.Errorf("micro: full read returned %d of %d events: %v", len(got), len(events), err)
		}
		m.sample("persist.segment_read_full_ns_per_event", d, len(events))
		d = m.timed("persist.ReadRangeProjected", func() { got, _, err = si.ReadRangeProjected(nil, 0, si.Count, proj) })
		if err != nil || len(got) != len(events) {
			return fmt.Errorf("micro: projected read returned %d of %d events: %v", len(got), len(events), err)
		}
		m.sample("persist.segment_read_projected_ns_per_event", d, len(events))
		return nil
	})
	if err != nil {
		return err
	}
	return wal.Close()
}

func (m *micro) obs() error {
	h := obs.NewRegistry().Histogram("bench_observe_seconds", "micro")
	return m.chunks(func(lo, hi int) error {
		n := (hi - lo) * 10
		d := m.timed("obs.Observe", func() {
			for i := 0; i < n; i++ {
				h.Observe(time.Duration(i))
			}
		})
		m.sample("obs.observe_ns", d, n)
		return nil
	})
}
