package dataflow

import (
	"fmt"
	"sort"
	"sync"

	"streamloader/internal/ops"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
)

// DebugResult carries the per-node outputs of a sample run: what the user
// sees in the bottom window of the design canvas when checking an operation
// "step-by-step ... on samples made available from the source" (P1).
type DebugResult struct {
	// Outputs maps node ID to the tuples observed on its output (for sinks:
	// on their input).
	Outputs map[string][]*stt.Tuple
}

// Debug executes the plan in-process on the given per-source sample tuples,
// on the same wiring the executor deploys, with a tap on every node's
// output. Samples are replayed in event-time order with per-tuple
// watermarks, so blocking operations flush exactly as they would live.
func Debug(plan *Plan, samples map[string][]*stt.Tuple) (*DebugResult, error) {
	res := &DebugResult{Outputs: map[string][]*stt.Tuple{}}
	var mu sync.Mutex
	errc := make(chan error, len(plan.Nodes)) // a node fails at most once
	record := func(node string, t *stt.Tuple) {
		mu.Lock()
		res.Outputs[node] = append(res.Outputs[node], t)
		mu.Unlock()
	}

	w := Wire(plan, stream.DefaultBuffer, Hooks{
		Emit: func(pn *PlanNode, t *stt.Tuple) { record(pn.ID, t) },
		Fail: func(pn *PlanNode, err error) {
			errc <- fmt.Errorf("dataflow: node %s: %w", pn.ID, err)
		},
	})
	w.Run(func(pn *PlanNode, out ops.Emitter) {
		sample := append([]*stt.Tuple(nil), samples[pn.ID]...)
		if len(sample) == 0 {
			// Allow addressing samples by sensor ID as well.
			sample = append(sample, samples[pn.SensorID]...)
		}
		sort.SliceStable(sample, func(i, j int) bool {
			return sample[i].Time.Before(sample[j].Time)
		})
		for _, t := range sample {
			out.Send(t)
			out.SendWatermark(t.Time)
		}
		out.Close()
	}, func(pn *PlanNode, ins []*stream.Stream) error {
		for _, in := range ins {
			for _, t := range stream.Collect(in) {
				record(pn.ID, t)
			}
		}
		return nil
	})
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	return res, nil
}
