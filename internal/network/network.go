// Package network simulates the programmable network StreamLoader deploys
// dataflows into (paper Figure 1: "at the bottom there is a network; each
// node ... is in charge of managing a bunch of sensors and can execute the
// proposed ETL stream processing operations").
//
// The simulation models what the paper's NICT testbed provides: nodes with
// processing capacity and a region of responsibility, links with latency and
// bandwidth, shortest-path routing, and flow allocation with QoS
// reservations — the network-configuration actions the SCN layer requests.
// It deliberately does not move packets; the executor moves tuples over Go
// channels and uses this package for placement, admission and accounting.
package network

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"streamloader/internal/dsn"
	"streamloader/internal/geo"
)

// Node is one machine of the programmable network.
type Node struct {
	// ID is the unique node name.
	ID string `json:"id"`
	// Capacity is the processing budget in abstract work units per second;
	// placement compares service weights against it.
	Capacity float64 `json:"capacity"`
	// Region is the area whose sensors this node manages.
	Region geo.Rect `json:"region"`

	load float64 // current placed weight
	down bool
}

// Link is an undirected edge between two nodes.
type Link struct {
	A, B          string
	LatencyMS     float64
	BandwidthKbps float64

	allocated float64 // reserved bandwidth
}

// Flow is an allocated path with QoS reservations (paper: "isolation of
// data traffic based on the ETL dataflow").
type Flow struct {
	ID           string
	From, To     string
	Path         []string
	ReservedKbps float64
	MaxLatencyMS int
	LatencyMS    float64

	counter *FlowCounter
}

// FlowCounter is the traffic account of one allocated flow. The data plane
// resolves it once per run (Network.FlowCounter) and then pays two atomic
// adds per transfer, with no lock and no lookup; TransferStats reads the
// same counters. It lives as long as its flow: RerouteFlow keeps it,
// ReleaseFlow orphans it.
type FlowCounter struct {
	tuples, bytes atomic.Uint64
}

// Add accounts tuples/bytes moved over the flow. The counter of an unknown
// flow is nil and ignores transfers.
func (c *FlowCounter) Add(tuples, bytes uint64) {
	if c == nil {
		return
	}
	c.tuples.Add(tuples)
	c.bytes.Add(bytes)
}

// Network is the simulated topology plus its allocation state. All methods
// are safe for concurrent use.
type Network struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	links map[[2]string]*Link
	adj   map[string][]string
	flows map[string]*Flow
}

// New creates an empty network.
func New() *Network {
	return &Network{
		nodes: map[string]*Node{},
		links: map[[2]string]*Link{},
		adj:   map[string][]string{},
		flows: map[string]*Flow{},
	}
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// AddNode registers a node.
func (n *Network) AddNode(node Node) error {
	if node.ID == "" {
		return fmt.Errorf("network: node needs an ID")
	}
	if node.Capacity <= 0 {
		return fmt.Errorf("network: node %s needs positive capacity", node.ID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[node.ID]; dup {
		return fmt.Errorf("network: duplicate node %s", node.ID)
	}
	copy := node
	n.nodes[node.ID] = &copy
	return nil
}

// AddLink registers an undirected link between existing nodes.
func (n *Network) AddLink(a, b string, latencyMS, bandwidthKbps float64) error {
	if a == b {
		return fmt.Errorf("network: self link on %s", a)
	}
	if latencyMS < 0 || bandwidthKbps <= 0 {
		return fmt.Errorf("network: link %s-%s needs latency >= 0 and bandwidth > 0", a, b)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[a]; !ok {
		return fmt.Errorf("network: unknown node %s", a)
	}
	if _, ok := n.nodes[b]; !ok {
		return fmt.Errorf("network: unknown node %s", b)
	}
	key := linkKey(a, b)
	if _, dup := n.links[key]; dup {
		return fmt.Errorf("network: duplicate link %s-%s", a, b)
	}
	n.links[key] = &Link{A: key[0], B: key[1], LatencyMS: latencyMS, BandwidthKbps: bandwidthKbps}
	n.adj[a] = append(n.adj[a], b)
	n.adj[b] = append(n.adj[b], a)
	sort.Strings(n.adj[a])
	sort.Strings(n.adj[b])
	return nil
}

// Nodes returns the node IDs, sorted.
func (n *Network) Nodes() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Node returns a copy of the node's descriptor and its current load.
func (n *Network) Node(id string) (Node, float64, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[id]
	if !ok {
		return Node{}, 0, false
	}
	return *node, node.load, true
}

// SetDown marks a node as failed (true) or healthy (false). Failed nodes are
// skipped by routing and placement; the executor reacts by migrating the
// services placed there.
func (n *Network) SetDown(id string, down bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("network: unknown node %s", id)
	}
	node.down = down
	return nil
}

// IsDown reports the failure state of a node.
func (n *Network) IsDown(id string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	node, ok := n.nodes[id]
	return ok && node.down
}

// AddLoad adjusts a node's placed weight (positive on placement, negative
// on migration away).
func (n *Network) AddLoad(id string, delta float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[id]
	if !ok {
		return fmt.Errorf("network: unknown node %s", id)
	}
	node.load += delta
	if node.load < 0 {
		node.load = 0
	}
	return nil
}

// Load returns the node's current placed weight.
func (n *Network) Load(id string) float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if node, ok := n.nodes[id]; ok {
		return node.load
	}
	return 0
}

// Utilization returns load/capacity per node, the monitor's "which node
// suffers because of high workload" figure.
func (n *Network) Utilization() map[string]float64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[string]float64, len(n.nodes))
	for id, node := range n.nodes {
		out[id] = node.load / node.Capacity
	}
	return out
}

// Route computes the minimum-latency path between two nodes using Dijkstra,
// skipping failed nodes. It returns the path (inclusive) and its latency.
func (n *Network) Route(from, to string) ([]string, float64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.routeLocked(from, to, 0)
}

// routeLocked is Dijkstra with an optional bandwidth constraint: links with
// less than minFreeKbps available are unusable.
func (n *Network) routeLocked(from, to string, minFreeKbps float64) ([]string, float64, error) {
	if _, ok := n.nodes[from]; !ok {
		return nil, 0, fmt.Errorf("network: unknown node %s", from)
	}
	if _, ok := n.nodes[to]; !ok {
		return nil, 0, fmt.Errorf("network: unknown node %s", to)
	}
	if n.nodes[from].down || n.nodes[to].down {
		return nil, 0, fmt.Errorf("network: endpoint down")
	}
	if from == to {
		return []string{from}, 0, nil
	}
	const inf = 1e18
	dist := map[string]float64{from: 0}
	prev := map[string]string{}
	visited := map[string]bool{}
	for {
		// Pick the unvisited node with the smallest distance (deterministic
		// tie-break by ID).
		best, bestD := "", inf
		for id, d := range dist {
			if !visited[id] && (d < bestD || (d == bestD && id < best)) {
				best, bestD = id, d
			}
		}
		if best == "" {
			return nil, 0, fmt.Errorf("network: no route %s -> %s", from, to)
		}
		if best == to {
			break
		}
		visited[best] = true
		for _, nb := range n.adj[best] {
			if visited[nb] || n.nodes[nb].down {
				continue
			}
			l := n.links[linkKey(best, nb)]
			if l.BandwidthKbps-l.allocated < minFreeKbps {
				continue
			}
			d := bestD + l.LatencyMS
			if cur, ok := dist[nb]; !ok || d < cur {
				dist[nb] = d
				prev[nb] = best
			}
		}
	}
	var path []string
	for at := to; at != ""; at = prev[at] {
		path = append(path, at)
		if at == from {
			break
		}
	}
	// Reverse.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[to], nil
}

// AllocateFlow admits a flow between two nodes with the given QoS: it finds
// the lowest-latency path with enough free bandwidth on every hop, verifies
// the latency bound, and reserves the bandwidth. Colocated endpoints yield a
// zero-cost loopback flow.
func (n *Network) AllocateFlow(id, from, to string, qos dsn.QoS) (*Flow, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.flows[id]; dup {
		return nil, fmt.Errorf("network: duplicate flow %s", id)
	}
	path, latency, err := n.routeLocked(from, to, float64(qos.MinBandwidthKbps))
	if err != nil {
		return nil, fmt.Errorf("network: flow %s: %w", id, err)
	}
	if qos.MaxLatencyMS > 0 && latency > float64(qos.MaxLatencyMS) {
		return nil, fmt.Errorf("network: flow %s: best path latency %.1fms exceeds bound %dms",
			id, latency, qos.MaxLatencyMS)
	}
	n.reserveLocked(path, float64(qos.MinBandwidthKbps))
	f := &Flow{
		ID: id, From: from, To: to, Path: path,
		ReservedKbps: float64(qos.MinBandwidthKbps),
		MaxLatencyMS: qos.MaxLatencyMS,
		LatencyMS:    latency,
		counter:      &FlowCounter{},
	}
	n.flows[id] = f
	return f, nil
}

// RerouteFlow moves an allocated flow to new endpoints (an operator
// migrated): its old reservations are freed, a path is found and reserved
// as in AllocateFlow, and the flow keeps its identity and its traffic
// account, so a run that resolved the FlowCounter keeps counting into the
// flow table. On failure the flow is left as it was.
func (n *Network) RerouteFlow(id, from, to string, qos dsn.QoS) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.flows[id]
	if !ok {
		return fmt.Errorf("network: unknown flow %s", id)
	}
	n.reserveLocked(f.Path, -f.ReservedKbps)
	path, latency, err := n.routeLocked(from, to, float64(qos.MinBandwidthKbps))
	if err == nil && qos.MaxLatencyMS > 0 && latency > float64(qos.MaxLatencyMS) {
		err = fmt.Errorf("best path latency %.1fms exceeds bound %dms", latency, qos.MaxLatencyMS)
	}
	if err != nil {
		n.reserveLocked(f.Path, f.ReservedKbps)
		return fmt.Errorf("network: flow %s: %w", id, err)
	}
	f.From, f.To, f.Path = from, to, path
	f.ReservedKbps = float64(qos.MinBandwidthKbps)
	f.MaxLatencyMS = qos.MaxLatencyMS
	f.LatencyMS = latency
	n.reserveLocked(f.Path, f.ReservedKbps)
	return nil
}

// reserveLocked adds kbps (negative to free) to every link of the path.
func (n *Network) reserveLocked(path []string, kbps float64) {
	for i := 0; i+1 < len(path); i++ {
		l := n.links[linkKey(path[i], path[i+1])]
		l.allocated += kbps
		if l.allocated < 0 {
			l.allocated = 0
		}
	}
}

// ReleaseFlow frees a flow's reservations.
func (n *Network) ReleaseFlow(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	f, ok := n.flows[id]
	if !ok {
		return fmt.Errorf("network: unknown flow %s", id)
	}
	n.reserveLocked(f.Path, -f.ReservedKbps)
	delete(n.flows, id)
	return nil
}

// Flow returns a copy of the flow's descriptor.
func (n *Network) Flow(id string) (Flow, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	f, ok := n.flows[id]
	if !ok {
		return Flow{}, false
	}
	return *f, true
}

// Flows returns the IDs of all allocated flows, sorted.
func (n *Network) Flows() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.flows))
	for id := range n.flows {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// FlowCounter resolves a flow to its traffic account, or nil for an unknown
// flow.
func (n *Network) FlowCounter(id string) *FlowCounter {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if f, ok := n.flows[id]; ok {
		return f.counter
	}
	return nil
}

// RecordTransfer accounts tuples/bytes moved over a flow by name; transfers
// on an unknown flow are ignored. Per-tuple callers resolve the FlowCounter
// once instead.
func (n *Network) RecordTransfer(id string, tuples, bytes uint64) {
	n.FlowCounter(id).Add(tuples, bytes)
}

// TransferStats returns the accumulated tuples and bytes of a flow.
func (n *Network) TransferStats(id string) (tuples, bytes uint64) {
	if c := n.FlowCounter(id); c != nil {
		return c.tuples.Load(), c.bytes.Load()
	}
	return 0, 0
}

// LinkFree returns the unallocated bandwidth of the link a-b.
func (n *Network) LinkFree(a, b string) (float64, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	l, ok := n.links[linkKey(a, b)]
	if !ok {
		return 0, false
	}
	return l.BandwidthKbps - l.allocated, true
}

// NodeForLocation returns the node whose region contains the point,
// preferring the first in ID order; falls back to the first healthy node.
// This is how sensors are bound to the node "in charge of managing" them.
func (n *Network) NodeForLocation(p geo.Point) (string, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ids := make([]string, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		node := n.nodes[id]
		if !node.down && node.Region.Contains(p) {
			return id, nil
		}
	}
	for _, id := range ids {
		if !n.nodes[id].down {
			return id, nil
		}
	}
	return "", fmt.Errorf("network: no healthy node for %v", p)
}
