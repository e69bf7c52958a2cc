package executor

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/dsn"
	"streamloader/internal/ops"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// Run executes the deployment over the event-time range [from, to). With a
// virtual clock the run replays at full speed; with the wall clock it paces
// sources in real time. Run returns when the range completes or after Stop
// drains the dataflow. A deployment can Run again (after Reconfigure, or to
// extend the range): sources resume from where they stopped.
func (d *Deployment) Run(from, to time.Time) error {
	d.mu.Lock()
	if d.running {
		d.mu.Unlock()
		return fmt.Errorf("executor: deployment already running")
	}
	d.running = true
	d.stopCh = make(chan struct{})
	d.coord = newTimeCoordinator()
	d.stopOnce = sync.Once{}
	plan, docName, coord := d.plan, d.doc.Name, d.coord
	placement := maps.Clone(d.placement)
	d.mu.Unlock()

	defer func() {
		d.mu.Lock()
		d.running = false
		d.stopCh, d.coord = nil, nil
		d.mu.Unlock()
	}()

	e := d.exec

	// Lay the plan out: one goroutine per source, blocking operation and
	// sink, non-blocking operations fused into their producer's process, a
	// channel only between goroutines (see dataflow.Wiring). Each node ends
	// at most once, so errs never blocks.
	errs := make(chan error, len(plan.Nodes))
	w := dataflow.Wire(plan, e.cfg.Buffer, dataflow.Hooks{
		// Cross-node transfers are accounted on every plan edge whose
		// endpoints are placed apart, fused or not.
		Edge: func(from, to *dataflow.PlanNode, port int) func(*stt.Tuple) {
			if placement[from.ID] == placement[to.ID] {
				return nil
			}
			flow := e.cfg.Network.FlowCounter(dsn.FlowID(docName, from.ID, to.ID, port))
			bytes := tupleBytes(from.OutSchema)
			return func(*stt.Tuple) { flow.Add(1, bytes) }
		},
		Fail: func(pn *dataflow.PlanNode, err error) {
			if pn.Kind != ops.KindSink {
				err = fmt.Errorf("executor: operation %s: %w", pn.ID, err)
			}
			errs <- err
			d.Stop() // stop sources so the generation drains
		},
	})

	// Sinks are built before any goroutine starts, so a construction
	// failure has nothing to unwind but the sinks already built.
	sinks := map[string]Sink{}
	for _, pn := range w.Procs {
		if pn.Kind != ops.KindSink {
			continue
		}
		sink, err := d.buildSink(pn, placement[pn.ID])
		if err != nil {
			for _, built := range sinks {
				_ = built.Close() // nothing was accepted; the build error is the one to report
			}
			return err
		}
		sinks[pn.ID] = sink
	}

	// Event-time coordination across sources (see timeCoordinator). Register
	// every source before any starts so none races ahead.
	for _, pn := range plan.Nodes {
		if pn.Kind == ops.KindSource {
			d.mu.RLock()
			start, resumed := d.sourcePos[pn.ID]
			d.mu.RUnlock()
			if !resumed || start.Before(from) {
				start = from
			}
			coord.register(pn.ID, start)
		}
	}

	w.Run(func(pn *dataflow.PlanNode, out ops.Emitter) {
		d.runSource(pn, coord, out, from, to)
	}, func(pn *dataflow.PlanNode, ins []*stream.Stream) error {
		return d.runSink(pn, sinks[pn.ID], ins)
	})
	close(errs)
	return <-errs
}

// tupleBytes estimates the wire size of a tuple for transfer accounting.
func tupleBytes(s *stt.Schema) uint64 {
	return uint64(48 + 16*s.NumFields())
}

// runSource paces one sensor-bound source. A deactivated sensor (its stream
// stopped by a Trigger Off, or not yet started by a Trigger On) produces no
// tuples but still advances the watermark, so downstream windows keep
// flushing — exactly the "activation/deactivation of streams" semantics of
// Table 1's trigger operations.
func (d *Deployment) runSource(pn *dataflow.PlanNode, coord *timeCoordinator, out ops.Emitter, from, to time.Time) {
	e := d.exec
	src, ok := e.cfg.Sensors(pn.SensorID)
	if !ok {
		// Sensor vanished between compile and run; emit nothing.
		coord.done(pn.ID)
		out.Close()
		return
	}
	defer coord.done(pn.ID)
	ctr := d.srcCtrs[pn.ID]
	period := src.Period()

	d.mu.RLock()
	start, resumed := d.sourcePos[pn.ID]
	stopCh := d.stopCh
	d.mu.RUnlock()
	if !resumed || start.Before(from) {
		start = from
	}

	ts := start
	for ts.Before(to) {
		select {
		case <-stopCh:
			goto done
		default:
		}
		// Hold until every other source has reached this event time, then
		// pace: wall clock sleeps, virtual clock advances instantly.
		coord.wait(pn.ID, ts)
		if wait := ts.Sub(e.cfg.Clock.Now()); wait > 0 {
			e.cfg.Clock.Sleep(wait)
		}
		if e.cfg.Broker.IsActive(pn.SensorID) {
			tup := src.At(ts)
			if ctr != nil {
				ctr.In.Add(1)
				ctr.Out.Add(1)
			}
			out.Send(tup)
		} else {
			if ctr != nil {
				ctr.In.Add(1)
				ctr.Dropped.Add(1)
			}
			// Generate-and-discard keeps the generator's internal state
			// aligned with event time across activation changes.
			_ = src.At(ts)
		}
		out.SendWatermark(ts)
		d.maybeSample(ts)
		ts = ts.Add(period)
	}
done:
	d.mu.Lock()
	d.sourcePos[pn.ID] = ts
	d.mu.Unlock()
	out.Close()
}

// runSink drains the sink's inputs into its destination, all of them at
// once: each input after the first gets a goroutine of its own, so a full
// edge on one input never holds up a source the coordinator keeps in
// lockstep with the others. Accept is then serialised here, because a
// factory sink need not lock. (A compiled sink has at least one input.) A
// Close failure is returned: for buffered sinks it means the final drain (or
// an asynchronous age flush) lost tuples, which must surface as a run error.
func (d *Deployment) runSink(pn *dataflow.PlanNode, sink Sink, ins []*stream.Stream) error {
	var accept *sync.Mutex // nil with one input: nothing to serialise
	if len(ins) > 1 {
		accept = &sync.Mutex{}
	}
	var wg sync.WaitGroup
	for _, in := range ins[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.drainInto(pn, sink, in, accept)
		}()
	}
	d.drainInto(pn, sink, ins[0], accept)
	wg.Wait()
	if err := sink.Close(); err != nil {
		return fmt.Errorf("executor: sink %s: %w", pn.ID, err)
	}
	return nil
}

// drainInto feeds one input edge to the sink until the edge closes.
//
// Tuples are accepted; a watermark ends a buffered sink's batch when the
// stream is live — the live rule of bufferedSink: the watermark is within
// SinkMaxAge of the clock and nothing is queued on the edge behind it, so
// there is nothing to coalesce the buffered tuples with and waiting for the
// age tick would only make them stale. staleBefore remembers the last
// clock reading minus SinkMaxAge: a watermark at or before it cannot be
// live, so a replay (watermarks years behind the clock) pays one comparison
// per watermark, not one clock read, and never flushes this way.
//
// A run on a *stream.VirtualClock is a replay whatever its watermarks say:
// that clock is moved by the sources' own Sleep, so every watermark has
// "caught up" with it, the rule would fire on every empty edge, and a
// full-speed replay would land tuple by tuple. It keeps its batches.
func (d *Deployment) drainInto(pn *dataflow.PlanNode, sink Sink, in *stream.Stream, accept *sync.Mutex) {
	ctr := d.sinkCtrs[pn.ID]
	cfg, met := &d.exec.cfg, &d.exec.met
	buffered, _ := sink.(*bufferedSink)
	if _, replay := cfg.Clock.(*stream.VirtualClock); replay {
		buffered = nil
	}
	var staleBefore time.Time
	for item := range in.C {
		switch item.Kind {
		case stream.ItemTuple:
			if ctr != nil {
				ctr.In.Add(1)
			}
			if accept != nil {
				accept.Lock()
			}
			err := sink.Accept(item.Tuple)
			if accept != nil {
				accept.Unlock()
			}
			if ctr != nil {
				if err != nil {
					ctr.Dropped.Add(1)
				} else {
					ctr.Out.Add(1)
				}
			}
		case stream.ItemWatermark:
			if buffered == nil || !item.Watermark.After(staleBefore) || len(in.C) > 0 {
				continue
			}
			now := cfg.Clock.Now()
			staleBefore = now.Add(-cfg.SinkMaxAge)
			met.lag.Observe(min(now.Sub(item.Watermark), time.Hour))
			if item.Watermark.After(staleBefore) {
				_ = buffered.flush(flushLive) // failure is re-buffered and recorded, not a loss
			}
		}
	}
}

// buildSink realizes a sink node's destination.
func (d *Deployment) buildSink(pn *dataflow.PlanNode, nodeID string) (Sink, error) {
	switch pn.SinkKind {
	case "collect":
		return d.collector(pn.ID), nil
	case "discard":
		return discardSink{}, nil
	default:
		if d.exec.cfg.Sinks == nil {
			return nil, fmt.Errorf("executor: sink %s wants %q but no sink factory is configured",
				pn.ID, pn.SinkKind)
		}
		var schema *stt.Schema
		if len(pn.In) > 0 {
			if up := d.plan.Node(pn.In[0]); up != nil {
				schema = up.OutSchema
			}
		}
		sink, err := d.exec.cfg.Sinks(pn.SinkKind, nodeID, schema)
		if err != nil {
			return nil, err
		}
		// Batch-capable destinations (the warehouse) get a buffering
		// front so the dataflow pays one shard lock round-trip per batch
		// instead of per tuple; Close drains, so Run still hands the
		// complete output downstream before returning. SinkBatch 0 sizes
		// the batches adaptively from the sink's observed arrival rate.
		if batch := d.exec.cfg.SinkBatch; batch >= 0 {
			if bs, ok := sink.(BatchSink); ok {
				return newBufferedSink(bs, batch, d.exec.cfg.SinkMaxAge, d.exec.met), nil
			}
		}
		return sink, nil
	}
}

// maybeSample triggers a monitor sample when event time has advanced far
// enough since the last one.
func (d *Deployment) maybeSample(ts time.Time) {
	m := d.exec.cfg.Monitor
	if m == nil {
		return
	}
	d.mu.Lock()
	due := d.lastSample.IsZero() || ts.Sub(d.lastSample) >= d.exec.cfg.SampleEvery
	if due {
		d.lastSample = ts
	}
	d.mu.Unlock()
	if due {
		m.SampleAll(ts)
	}
}
