package dataflow

import (
	"sync"

	"streamloader/internal/ops"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// Wiring is the execution plan of a compiled dataflow. The plan (and the DSN
// document) keeps one service per operation; the wiring keeps one goroutine
// per *process* — a source, a blocking operation or a sink — and runs every
// non-blocking operation as a function call inside the process that produced
// the tuple. The output side of a process is
//
//	fan-out → [map stage → map stage → …] → channel edge
//
// so a channel exists only where two goroutines meet: into a blocking
// operation and into a sink. The executor and Debug both run on it.
type Wiring struct {
	// Procs are the nodes that run as goroutines, in plan order.
	Procs []*PlanNode
	// Edges are the channels, named "<from>-><to>" after their plan edge.
	Edges []*stream.Stream

	hooks Hooks
	out   map[string]ops.Emitter      // per node with an output: what it emits into
	in    map[string][]*stream.Stream // per process with inputs: its edges in port order
}

// Hooks let a runner observe the wiring instead of owning a copy of it.
// Emit and Edge may be nil.
type Hooks struct {
	// Emit sees every tuple a node emits, ahead of the fan-out.
	Emit func(pn *PlanNode, t *stt.Tuple)
	// Edge is asked once per plan edge for a function that sees every tuple
	// crossing it (nil for none), whether the edge became a channel or a
	// function call: accounting done here does not depend on which.
	Edge func(from, to *PlanNode, port int) func(*stt.Tuple)
	// Fail receives the error that ended a node (a failed Map, a blocking
	// operation's Run, a sink), at most once per node.
	Fail func(pn *PlanNode, err error)
}

// Wire lays the plan out over channel edges of the given capacity.
func Wire(plan *Plan, buffer int, hooks Hooks) *Wiring {
	w := &Wiring{
		hooks: hooks,
		out:   map[string]ops.Emitter{},
		in:    map[string][]*stream.Stream{},
	}
	for _, pn := range plan.Nodes {
		if _, fused := pn.Op.(ops.Mapper); !fused {
			w.Procs = append(w.Procs, pn)
			w.in[pn.ID] = make([]*stream.Stream, len(pn.In))
		}
	}
	// Plan order is topological: walking it backwards wires every consumer
	// before its producer.
	for i := len(plan.Nodes) - 1; i >= 0; i-- {
		pn := plan.Nodes[i]
		if pn.Kind == ops.KindSink {
			continue
		}
		outs := make([]ops.Emitter, 0, len(pn.Out))
		for _, toID := range pn.Out {
			to := plan.Node(toID)
			ins := w.in[toID]
			// The first port pn feeds that no edge has claimed yet: pn may
			// feed both ports of a join.
			port := 0
			for to.In[port] != pn.ID || (ins != nil && ins[port] != nil) {
				port++
			}
			var next ops.Emitter
			if m, fused := to.Op.(ops.Mapper); fused {
				next = ops.Stage(m, w.out[toID], func(err error) { hooks.Fail(to, err) })
			} else {
				ins[port] = stream.New(pn.ID+"->"+toID, pn.OutSchema, buffer)
				w.Edges = append(w.Edges, ins[port])
				next = ins[port]
			}
			if hooks.Edge != nil {
				if see := hooks.Edge(pn, to, port); see != nil {
					next = observed{next, see}
				}
			}
			outs = append(outs, next)
		}
		out := ops.Fanout(outs...)
		if hooks.Emit != nil {
			out = observed{out, func(t *stt.Tuple) { hooks.Emit(pn, t) }}
		}
		w.out[pn.ID] = out
	}
	return w
}

// Run starts one goroutine per process and returns when all have ended.
// source drives a source node into its emitter and closes it; sink consumes
// a sink node's edges to EOS; blocking operations run here.
func (w *Wiring) Run(source func(*PlanNode, ops.Emitter), sink func(*PlanNode, []*stream.Stream) error) {
	var wg sync.WaitGroup
	for _, pn := range w.Procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			switch pn.Kind {
			case ops.KindSource:
				source(pn, w.out[pn.ID])
			case ops.KindSink:
				err = sink(pn, w.in[pn.ID])
			default:
				err = pn.Op.Run(w.in[pn.ID], w.out[pn.ID])
				// Unblock upstream regardless of how Run ended.
				for _, in := range w.in[pn.ID] {
					in.Drain()
				}
			}
			if err != nil {
				w.hooks.Fail(pn, err)
			}
		}()
	}
	wg.Wait()
}

// observed shows each tuple to see on its way to the next emitter.
type observed struct {
	ops.Emitter
	see func(*stt.Tuple)
}

func (o observed) Send(t *stt.Tuple) {
	o.see(t)
	o.Emitter.Send(t)
}
