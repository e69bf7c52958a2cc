// Package executor realizes deployed dataflows: it compiles a conceptual
// dataflow, translates it to DSN, obtains a placement from the configured
// strategy, applies the SCN configuration requests to the simulated network,
// generates the processes, binds sources to sensors through the
// publish/subscribe layer, and coordinates execution — the "translator" plus
// "executor" modules of the paper's Figure 1.
//
// The DSN document keeps one service per operation, each placed and linked
// by flows. A process (goroutine) is generated per source, blocking
// operation and sink; non-blocking operations run as function calls inside
// the process that produced the tuple (see dataflow.Wiring), their edges
// accounted on the SCN flows all the same.
//
// Execution is generation-based: a deployment runs a generation until the
// requested time range completes or a graceful stop is requested; stopping
// drains all in-flight tuples to the sinks (blocking operations flush), so
// reconfiguration (P3 operator hot-swap, plug-and-play sensors) and
// workload-driven migration lose no data.
package executor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"streamloader/internal/dataflow"
	"streamloader/internal/dsn"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/ops"
	"streamloader/internal/pubsub"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// SensorSource is the generator interface sources pull readings from;
// *sensor.Sensor satisfies it.
type SensorSource interface {
	ID() string
	Schema() *stt.Schema
	Period() time.Duration
	At(ts time.Time) *stt.Tuple
}

// SensorRegistry resolves sensor IDs to their generators.
type SensorRegistry func(id string) (SensorSource, bool)

// Sink consumes the tuples a dataflow delivers to a destination (the Event
// Data Warehouse, the visualization tool, ...).
type Sink interface {
	Accept(*stt.Tuple) error
	Close() error
}

// SinkFactory builds the sink for a sink node. It is consulted for
// "warehouse" and "viz" sinks; "collect" and "discard" are built in.
type SinkFactory func(sinkKind, nodeID string, schema *stt.Schema) (Sink, error)

// Config assembles an executor.
type Config struct {
	// Network is the programmable network to deploy into.
	Network *network.Network
	// Broker is the pub/sub layer for sensor discovery and activation.
	Broker *pubsub.Broker
	// Strategy decides operator placement. Default: least-loaded.
	Strategy network.Strategy
	// Monitor collects Figure 3 statistics. Optional.
	Monitor *monitor.Monitor
	// Clock paces sources: stream.WallClock for live runs,
	// *stream.VirtualClock for replay. Default: virtual clock.
	Clock stream.Clock
	// Sensors resolves source bindings.
	Sensors SensorRegistry
	// Sinks builds warehouse/viz sinks. Optional.
	Sinks SinkFactory
	// Buffer is the stream buffer size (default stream.DefaultBuffer).
	Buffer int
	// SampleEvery is the event-time interval between monitor samples
	// (default 1s).
	SampleEvery time.Duration
	// SinkBatch sizes the buffering applied in front of factory sinks that
	// support batched accepts (the warehouse). 0 (the default) sizes each
	// sink's batches adaptively from its observed arrival rate (an EWMA of
	// tuples per flush interval, clamped to [32, 4096]); a positive value
	// fixes the batch size; negative disables sink buffering.
	SinkBatch int
	// SinkMaxAge bounds how long a tuple may sit in a sink buffer before
	// an age-based flush (default 50ms). It is an upper bound, not the
	// usual wait: a stream whose watermarks are within SinkMaxAge of Clock
	// is live, and its sink flushes as soon as its input edge is empty
	// (see bufferedSink).
	SinkMaxAge time.Duration
}

// Executor deploys dataflows.
type Executor struct {
	cfg Config
	met sinkMetrics // see RegisterMetrics
}

// New validates the configuration.
func New(cfg Config) (*Executor, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("executor: needs a network")
	}
	if cfg.Broker == nil {
		return nil, fmt.Errorf("executor: needs a broker")
	}
	if cfg.Sensors == nil {
		return nil, fmt.Errorf("executor: needs a sensor registry")
	}
	if cfg.Strategy == nil {
		cfg.Strategy = network.LeastLoaded{}
	}
	if cfg.Clock == nil {
		cfg.Clock = stream.NewVirtualClock(time.Unix(0, 0))
	}
	if cfg.Buffer == 0 {
		cfg.Buffer = stream.DefaultBuffer
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	if cfg.SinkMaxAge <= 0 {
		cfg.SinkMaxAge = 50 * time.Millisecond
	}
	return &Executor{cfg: cfg}, nil
}

// opWeight estimates the processing cost of a plan node for placement.
func opWeight(kind ops.Kind) float64 {
	switch {
	case kind == ops.KindSource:
		return 1
	case kind == ops.KindSink:
		return 0.5
	case kind.Blocking():
		return 3
	default:
		return 1
	}
}

// Deployment is a dataflow deployed onto the network.
type Deployment struct {
	exec *Executor

	mu        sync.RWMutex
	spec      *dataflow.Spec
	plan      *dataflow.Plan
	doc       *dsn.Document
	placement map[string]string
	reqs      []dsn.Request
	running   bool

	sourcePos  map[string]time.Time // resume position per source node
	collectors map[string]*collectSink
	fires      []ops.FireEvent
	srcCtrs    map[string]*ops.Counters
	sinkCtrs   map[string]*ops.Counters

	lastSample time.Time
	stopCh     chan struct{}    // closed by Stop; nil between runs
	coord      *timeCoordinator // of the running generation
	stopOnce   sync.Once
}

// Deploy compiles, translates, places and configures the dataflow. Sources
// whose sensors are targets of a Trigger On start deactivated (the trigger
// will start them); every other source sensor is activated.
func (e *Executor) Deploy(spec *dataflow.Spec) (*Deployment, error) {
	d := &Deployment{
		exec:       e,
		spec:       spec,
		sourcePos:  map[string]time.Time{},
		collectors: map[string]*collectSink{},
		srcCtrs:    map[string]*ops.Counters{},
		sinkCtrs:   map[string]*ops.Counters{},
	}
	if err := d.compileAndConfigure(spec); err != nil {
		return nil, err
	}
	if m := e.cfg.Monitor; m != nil {
		m.SetLoadSource(e.cfg.Network.Utilization)
		m.RecordEvent(monitor.Event{
			Time: e.cfg.Clock.Now(), Kind: monitor.EventDeployed,
			Detail: fmt.Sprintf("dataflow %s: %d services", spec.Name, len(d.plan.Nodes)),
		})
	}
	return d, nil
}

// compileAndConfigure (re)builds plan, DSN, placement and flows for a spec.
// Existing placements are kept for nodes that survive reconfiguration.
func (d *Deployment) compileAndConfigure(spec *dataflow.Spec) error {
	e := d.exec
	resolver := dataflow.ResolverFunc(func(id string) (*stt.Schema, bool) {
		if meta, ok := e.cfg.Broker.Get(id); ok {
			return meta.Schema, true
		}
		return nil, false
	})
	onFire := func(ev ops.FireEvent) {
		d.mu.Lock()
		d.fires = append(d.fires, ev)
		d.mu.Unlock()
		if ev.Fired && e.cfg.Monitor != nil {
			e.cfg.Monitor.RecordFire(ev)
		}
	}
	plan, diags := dataflow.Compile(spec, resolver, e.cfg.Broker, onFire)
	if diags.HasErrors() {
		return fmt.Errorf("executor: dataflow invalid: %v", diags)
	}
	doc, err := dsn.Translate(spec, plan)
	if err != nil {
		return err
	}

	// Placement: keep surviving assignments, place new services.
	old := d.placement
	placement := map[string]string{}
	for _, pn := range plan.Nodes {
		if node, ok := old[pn.ID]; ok && !e.cfg.Network.IsDown(node) {
			placement[pn.ID] = node
			continue
		}
		info := network.ServiceInfo{
			Name: pn.ID, Kind: string(pn.Kind), Weight: opWeight(pn.Kind),
		}
		if pn.Kind == ops.KindSource {
			if meta, ok := e.cfg.Broker.Get(pn.SensorID); ok {
				info.PreferredNode = meta.NodeID
			}
		}
		node, err := e.cfg.Strategy.Place(info, e.cfg.Network)
		if err != nil {
			return fmt.Errorf("executor: placing %s: %w", pn.ID, err)
		}
		placement[pn.ID] = node
	}
	// Release load of vanished services.
	for id, node := range old {
		if _, still := placement[id]; !still {
			if pn := d.plan.Node(id); pn != nil {
				_ = e.cfg.Network.AddLoad(node, -opWeight(pn.Kind))
			}
		}
	}

	// Activation policy: sensors that are targets of a Trigger On start
	// deactivated (the trigger will start them); every other source sensor
	// is activated. Applied on deploy and on every reconfiguration, so
	// newly plugged-in sensors start flowing (P3).
	onTargets := map[string]bool{}
	for _, n := range spec.Nodes {
		if ops.Kind(n.Kind) == ops.KindTriggerOn {
			for _, t := range n.Targets {
				onTargets[t] = true
			}
		}
	}
	for _, pn := range plan.Nodes {
		if pn.Kind != ops.KindSource {
			continue
		}
		if onTargets[pn.SensorID] {
			// Only force-deactivate on first sight; a later reconfiguration
			// must not undo an activation the trigger already performed.
			if _, seen := old[pn.ID]; !seen {
				if err := e.cfg.Broker.Deactivate(pn.SensorID); err != nil {
					return fmt.Errorf("executor: %w", err)
				}
			}
		} else {
			if err := e.cfg.Broker.Activate(pn.SensorID); err != nil {
				return fmt.Errorf("executor: %w", err)
			}
		}
	}

	reqs, err := dsn.ConfigRequests(doc, placement)
	if err != nil {
		return err
	}
	// Apply SCN: (re)allocate one flow per link with its QoS.
	d.releaseFlows()
	for _, l := range doc.Links {
		flowID := dsn.FlowID(doc.Name, l.From, l.To, l.Port)
		if _, err := e.cfg.Network.AllocateFlow(flowID, placement[l.From], placement[l.To], l.QoS); err != nil {
			return err
		}
	}

	d.mu.Lock()
	d.spec = spec
	d.plan = plan
	d.doc = doc
	d.placement = placement
	d.reqs = reqs
	d.mu.Unlock()

	// (Re-)register operations with the monitor.
	if m := e.cfg.Monitor; m != nil {
		for _, pn := range plan.Nodes {
			switch pn.Kind {
			case ops.KindSource:
				c := d.srcCtrs[pn.ID]
				if c == nil {
					c = &ops.Counters{}
					d.srcCtrs[pn.ID] = c
				}
				m.Register(pn.ID, placement[pn.ID], c)
			case ops.KindSink:
				c := d.sinkCtrs[pn.ID]
				if c == nil {
					c = &ops.Counters{}
					d.sinkCtrs[pn.ID] = c
				}
				m.Register(pn.ID, placement[pn.ID], c)
			default:
				m.Register(pn.ID, placement[pn.ID], pn.Op.Counters())
			}
		}
	}
	return nil
}

// releaseFlows frees the flows of the current DSN document's links. The
// caller is the only writer of d.doc, or holds d.mu.
func (d *Deployment) releaseFlows() {
	if d.doc == nil {
		return
	}
	for _, l := range d.doc.Links {
		_ = d.exec.cfg.Network.ReleaseFlow(dsn.FlowID(d.doc.Name, l.From, l.To, l.Port))
	}
}

// DSNText returns the dataflow's DSN document (shown in the P2 demo step).
func (d *Deployment) DSNText() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.doc.String()
}

// SCNScript returns the SCN configuration script applied at deployment.
func (d *Deployment) SCNScript() string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return dsn.Script(d.reqs)
}

// Placement returns a copy of the service → node assignment.
func (d *Deployment) Placement() map[string]string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[string]string, len(d.placement))
	for k, v := range d.placement {
		out[k] = v
	}
	return out
}

// Collected returns the tuples gathered by a "collect" sink (merged across
// runs; each sink buffers under its own lock).
func (d *Deployment) Collected(sinkID string) []*stt.Tuple {
	d.mu.RLock()
	c := d.collectors[sinkID]
	d.mu.RUnlock()
	if c == nil {
		return []*stt.Tuple{}
	}
	return c.snapshot()
}

// collector returns the named collect sink, creating it on first use so
// collected tuples accumulate across runs of the same deployment.
func (d *Deployment) collector(sinkID string) *collectSink {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.collectors[sinkID]
	if c == nil {
		c = &collectSink{}
		d.collectors[sinkID] = c
	}
	return c
}

// Fires returns the trigger decisions observed so far.
func (d *Deployment) Fires() []ops.FireEvent {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]ops.FireEvent, len(d.fires))
	copy(out, d.fires)
	return out
}

// Stop requests a graceful stop of the running generation: sources cease
// emitting (those waiting on the coordinator are released), in-flight tuples
// drain to the sinks, Run returns.
func (d *Deployment) Stop() {
	d.mu.RLock()
	ch, coord := d.stopCh, d.coord
	d.mu.RUnlock()
	if ch != nil {
		d.stopOnce.Do(func() {
			close(ch)
			coord.stop()
		})
	}
}

// Reconfigure replaces the dataflow spec (operator hot-swap, added or
// removed sensors — the P3 walkthrough). It must be called between runs; the
// next Run resumes sources from their saved positions, so no tuples are
// lost or duplicated across the swap.
func (d *Deployment) Reconfigure(spec *dataflow.Spec) error {
	d.mu.RLock()
	running := d.running
	d.mu.RUnlock()
	if running {
		return fmt.Errorf("executor: stop the deployment before reconfiguring")
	}
	if err := d.compileAndConfigure(spec); err != nil {
		return err
	}
	if m := d.exec.cfg.Monitor; m != nil {
		m.RecordEvent(monitor.Event{
			Time: d.exec.cfg.Clock.Now(), Kind: monitor.EventSwapped,
			Detail: fmt.Sprintf("dataflow %s reconfigured", spec.Name),
		})
	}
	return nil
}

// SwapOperator replaces one node's configuration in place (same ID).
func (d *Deployment) SwapOperator(ns dataflow.NodeSpec) error {
	d.mu.RLock()
	spec := *d.spec
	d.mu.RUnlock()
	nodes := make([]dataflow.NodeSpec, len(spec.Nodes))
	copy(nodes, spec.Nodes)
	found := false
	for i := range nodes {
		if nodes[i].ID == ns.ID {
			nodes[i] = ns
			found = true
		}
	}
	if !found {
		return fmt.Errorf("executor: no node %q to swap", ns.ID)
	}
	spec.Nodes = nodes
	return d.Reconfigure(&spec)
}

// Migration describes one operator move decided by Rebalance.
type Migration struct {
	Op   string
	From string
	To   string
}

// Rebalance performs one workload-driven reassignment pass: if the hottest
// node's utilization exceeds the coldest's by more than 0.25, the heaviest
// movable operation (sources stay pinned to their sensor's node) migrates to
// the coldest node and its flows are re-allocated. Safe to call while
// running; the data plane observes the new placement immediately through
// the flow table.
func (d *Deployment) Rebalance(at time.Time) ([]Migration, error) {
	e := d.exec
	util := e.cfg.Network.Utilization()
	if len(util) < 2 {
		return nil, nil
	}
	ids := make([]string, 0, len(util))
	for id := range util {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	hot, cold := ids[0], ids[0]
	for _, id := range ids {
		if e.cfg.Network.IsDown(id) {
			continue
		}
		if util[id] > util[hot] {
			hot = id
		}
		if util[id] < util[cold] {
			cold = id
		}
	}
	if util[hot]-util[cold] <= 0.25 {
		return nil, nil
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// Heaviest movable op on the hot node.
	var victim *dataflow.PlanNode
	for _, pn := range d.plan.Nodes {
		if d.placement[pn.ID] != hot {
			continue
		}
		if pn.Kind == ops.KindSource || pn.Kind == ops.KindSink {
			continue
		}
		if victim == nil || opWeight(pn.Kind) > opWeight(victim.Kind) {
			victim = pn
		}
	}
	if victim == nil {
		return nil, nil
	}
	w := opWeight(victim.Kind)
	// Only migrate when the move strictly improves balance: the cold node
	// must stay below the hot node's current utilization after absorbing the
	// operator. This prevents ping-ponging between nodes.
	coldNode, coldLoad, ok := e.cfg.Network.Node(cold)
	if !ok || (coldLoad+w)/coldNode.Capacity >= util[hot] {
		return nil, nil
	}
	if err := e.cfg.Network.AddLoad(hot, -w); err != nil {
		return nil, err
	}
	if err := e.cfg.Network.AddLoad(cold, w); err != nil {
		return nil, err
	}
	d.placement[victim.ID] = cold
	// Re-allocate the victim's flows.
	if err := d.reallocFlowsLocked(victim.ID); err != nil {
		// Revert.
		d.placement[victim.ID] = hot
		_ = e.cfg.Network.AddLoad(cold, -w)
		_ = e.cfg.Network.AddLoad(hot, w)
		_ = d.reallocFlowsLocked(victim.ID)
		return nil, err
	}
	if m := e.cfg.Monitor; m != nil {
		m.Reassign(victim.ID, cold, at)
	}
	return []Migration{{Op: victim.ID, From: hot, To: cold}}, nil
}

// reallocFlowsLocked re-routes the flows of every link touching the given
// service under the current placement. The flows keep their traffic
// accounts, which a running generation holds. Caller holds d.mu.
func (d *Deployment) reallocFlowsLocked(service string) error {
	for _, l := range d.doc.Links {
		if l.From != service && l.To != service {
			continue
		}
		id := dsn.FlowID(d.doc.Name, l.From, l.To, l.Port)
		if err := d.exec.cfg.Network.RerouteFlow(id, d.placement[l.From], d.placement[l.To], l.QoS); err != nil {
			return err
		}
	}
	return nil
}

// Undeploy releases the deployment's flows and placement load and
// unregisters its operations from the monitor.
func (d *Deployment) Undeploy() {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.exec
	d.releaseFlows()
	for id, node := range d.placement {
		if pn := d.plan.Node(id); pn != nil {
			_ = e.cfg.Network.AddLoad(node, -opWeight(pn.Kind))
		}
		if m := e.cfg.Monitor; m != nil {
			m.Unregister(id)
		}
	}
	if m := e.cfg.Monitor; m != nil {
		m.RecordEvent(monitor.Event{
			Time: e.cfg.Clock.Now(), Kind: monitor.EventStopped,
			Detail: fmt.Sprintf("dataflow %s undeployed", d.spec.Name),
		})
	}
}
