package network

import (
	"sync"
	"testing"
	"testing/quick"

	"streamloader/internal/dsn"
	"streamloader/internal/geo"
)

func cfg(nodes int) TopologyConfig {
	return TopologyConfig{Nodes: nodes, Capacity: 100, LatencyMS: 2, BandwidthKbps: 1000, Seed: 7}
}

func TestAddNodeValidation(t *testing.T) {
	n := New()
	if err := n.AddNode(Node{}); err == nil {
		t.Error("empty ID must fail")
	}
	if err := n.AddNode(Node{ID: "a"}); err == nil {
		t.Error("zero capacity must fail")
	}
	if err := n.AddNode(Node{ID: "a", Capacity: 10}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(Node{ID: "a", Capacity: 10}); err == nil {
		t.Error("duplicate must fail")
	}
}

func TestAddLinkValidation(t *testing.T) {
	n := New()
	_ = n.AddNode(Node{ID: "a", Capacity: 10})
	_ = n.AddNode(Node{ID: "b", Capacity: 10})
	if err := n.AddLink("a", "a", 1, 100); err == nil {
		t.Error("self link must fail")
	}
	if err := n.AddLink("a", "ghost", 1, 100); err == nil {
		t.Error("unknown endpoint must fail")
	}
	if err := n.AddLink("a", "b", -1, 100); err == nil {
		t.Error("negative latency must fail")
	}
	if err := n.AddLink("a", "b", 1, 0); err == nil {
		t.Error("zero bandwidth must fail")
	}
	if err := n.AddLink("a", "b", 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("b", "a", 1, 100); err == nil {
		t.Error("duplicate (reversed) link must fail")
	}
}

func TestTopologies(t *testing.T) {
	for _, kind := range []string{"star", "line", "tree", "random"} {
		n, err := Build(kind, cfg(8))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(n.Nodes()) != 8 {
			t.Errorf("%s: %d nodes", kind, len(n.Nodes()))
		}
		// Every pair must be connected.
		ids := n.Nodes()
		for _, a := range ids {
			for _, b := range ids {
				if _, _, err := n.Route(a, b); err != nil {
					t.Errorf("%s: no route %s -> %s", kind, a, b)
				}
			}
		}
	}
	if _, err := Build("donut", cfg(4)); err == nil {
		t.Error("unknown topology must fail")
	}
	if _, err := Star(cfg(0)); err == nil {
		t.Error("zero nodes must fail")
	}
}

func TestRegionsPartitionArea(t *testing.T) {
	n, err := Star(cfg(5))
	if err != nil {
		t.Fatal(err)
	}
	// Every point in Osaka maps to some node.
	pts := []geo.Point{
		geo.OsakaCenter,
		{Lat: 34.45, Lon: 135.25},
		{Lat: 34.85, Lon: 135.65},
	}
	for _, p := range pts {
		id, err := n.NodeForLocation(p)
		if err != nil {
			t.Errorf("no node for %v: %v", p, err)
			continue
		}
		node, _, _ := n.Node(id)
		if !node.Region.Contains(p) {
			t.Errorf("node %s region %v does not contain %v", id, node.Region, p)
		}
	}
	// A point outside the area falls back to a healthy node.
	if _, err := n.NodeForLocation(geo.Point{Lat: 0, Lon: 0}); err != nil {
		t.Errorf("fallback failed: %v", err)
	}
}

func TestRouteShortestPath(t *testing.T) {
	// line: node-00 .. node-04, 2ms per hop.
	n, err := Line(cfg(5))
	if err != nil {
		t.Fatal(err)
	}
	path, latency, err := n.Route("node-00", "node-04")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 || latency != 8 {
		t.Errorf("path=%v latency=%v, want 5 hops 8ms", path, latency)
	}
	// Self route.
	path, latency, err = n.Route("node-02", "node-02")
	if err != nil || len(path) != 1 || latency != 0 {
		t.Errorf("self route: %v %v %v", path, latency, err)
	}
	if _, _, err := n.Route("node-00", "ghost"); err == nil {
		t.Error("unknown target must fail")
	}
}

func TestRouteAvoidsDownNodes(t *testing.T) {
	// Star with hub node-00: spoke-to-spoke goes through the hub; hub down
	// disconnects them.
	n, err := Star(cfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Route("node-01", "node-02"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetDown("node-00", true); err != nil {
		t.Fatal(err)
	}
	if !n.IsDown("node-00") {
		t.Error("IsDown")
	}
	if _, _, err := n.Route("node-01", "node-02"); err == nil {
		t.Error("route through a down hub must fail")
	}
	if err := n.SetDown("node-00", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Route("node-01", "node-02"); err != nil {
		t.Error("route must recover after node comes back")
	}
	if err := n.SetDown("ghost", true); err == nil {
		t.Error("SetDown on unknown node must fail")
	}
}

func TestAllocateFlowReservesBandwidth(t *testing.T) {
	n, err := Line(cfg(3)) // 1000 kbps links
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.AllocateFlow("f1", "node-00", "node-02", dsn.QoS{MaxLatencyMS: 100, MinBandwidthKbps: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Path) != 3 || f.LatencyMS != 4 {
		t.Errorf("flow: %+v", f)
	}
	free, ok := n.LinkFree("node-00", "node-01")
	if !ok || free != 400 {
		t.Errorf("free = %v", free)
	}
	// Second flow needing 600 kbps cannot fit.
	if _, err := n.AllocateFlow("f2", "node-00", "node-02", dsn.QoS{MinBandwidthKbps: 600}); err == nil {
		t.Error("over-subscription must fail")
	}
	// 400 kbps fits.
	if _, err := n.AllocateFlow("f3", "node-00", "node-02", dsn.QoS{MinBandwidthKbps: 400}); err != nil {
		t.Errorf("fitting flow rejected: %v", err)
	}
	// Release frees the reservation.
	if err := n.ReleaseFlow("f1"); err != nil {
		t.Fatal(err)
	}
	free, _ = n.LinkFree("node-00", "node-01")
	if free != 600 {
		t.Errorf("free after release = %v", free)
	}
	if err := n.ReleaseFlow("ghost"); err == nil {
		t.Error("releasing unknown flow must fail")
	}
	if _, err := n.AllocateFlow("f3", "node-00", "node-01", dsn.QoS{}); err == nil {
		t.Error("duplicate flow ID must fail")
	}
}

func TestAllocateFlowLatencyBound(t *testing.T) {
	n, err := Line(cfg(5)) // 2ms per hop, 8ms end to end
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AllocateFlow("tight", "node-00", "node-04", dsn.QoS{MaxLatencyMS: 5}); err == nil {
		t.Error("latency bound must reject the only path")
	}
	if _, err := n.AllocateFlow("loose", "node-00", "node-04", dsn.QoS{MaxLatencyMS: 10}); err != nil {
		t.Errorf("feasible flow rejected: %v", err)
	}
}

func TestColocatedFlow(t *testing.T) {
	n, err := Star(cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.AllocateFlow("loop", "node-01", "node-01", dsn.QoS{MinBandwidthKbps: 999999})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Path) != 1 || f.LatencyMS != 0 {
		t.Errorf("loopback: %+v", f)
	}
}

func TestTransferAccounting(t *testing.T) {
	n, _ := Star(cfg(2))
	if _, err := n.AllocateFlow("f", "node-00", "node-01", dsn.QoS{MinBandwidthKbps: 10}); err != nil {
		t.Fatal(err)
	}
	n.RecordTransfer("f", 10, 640)
	n.RecordTransfer("f", 5, 320)
	n.RecordTransfer("ghost", 1, 1) // silently ignored
	tuples, bytes := n.TransferStats("f")
	if tuples != 15 || bytes != 960 {
		t.Errorf("stats = %d, %d", tuples, bytes)
	}
	if tu, by := n.TransferStats("ghost"); tu != 0 || by != 0 {
		t.Error("unknown flow stats must be zero")
	}
	if len(n.Flows()) != 1 || n.Flows()[0] != "f" {
		t.Errorf("Flows = %v", n.Flows())
	}
}

func TestLoadAccounting(t *testing.T) {
	n, _ := Star(cfg(2))
	if err := n.AddLoad("node-00", 30); err != nil {
		t.Fatal(err)
	}
	if n.Load("node-00") != 30 {
		t.Error("Load")
	}
	if err := n.AddLoad("node-00", -50); err != nil {
		t.Fatal(err)
	}
	if n.Load("node-00") != 0 {
		t.Error("load must clamp at zero")
	}
	if err := n.AddLoad("ghost", 1); err == nil {
		t.Error("unknown node must fail")
	}
	if n.Load("ghost") != 0 {
		t.Error("unknown node load is zero")
	}
	_ = n.AddLoad("node-01", 50)
	util := n.Utilization()
	if util["node-01"] != 0.5 {
		t.Errorf("utilization = %v", util)
	}
}

func TestPlacementStrategies(t *testing.T) {
	services := make([]ServiceInfo, 12)
	for i := range services {
		services[i] = ServiceInfo{Name: nodeID(i), Kind: "filter", Weight: 10}
	}

	t.Run("round-robin", func(t *testing.T) {
		n, _ := Star(cfg(4))
		s := &RoundRobin{}
		counts := map[string]int{}
		for _, svc := range services {
			id, err := s.Place(svc, n)
			if err != nil {
				t.Fatal(err)
			}
			counts[id]++
		}
		for id, c := range counts {
			if c != 3 {
				t.Errorf("node %s got %d services, want 3", id, c)
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		n, _ := Star(cfg(4))
		s := NewRandomPlacement(42)
		counts := map[string]int{}
		for _, svc := range services {
			id, err := s.Place(svc, n)
			if err != nil {
				t.Fatal(err)
			}
			counts[id]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != 12 {
			t.Errorf("placed %d", total)
		}
		// Reproducibility.
		n2, _ := Star(cfg(4))
		s2 := NewRandomPlacement(42)
		for _, svc := range services {
			id2, _ := s2.Place(svc, n2)
			_ = id2
		}
		if n2.Load("node-00") != n.Load("node-00") {
			t.Error("seeded random placement must be reproducible")
		}
	})

	t.Run("least-loaded", func(t *testing.T) {
		n, _ := Star(cfg(4))
		// Pre-load node-00 heavily: least-loaded must avoid it.
		_ = n.AddLoad("node-00", 90)
		s := LeastLoaded{}
		for _, svc := range services {
			id, err := s.Place(svc, n)
			if err != nil {
				t.Fatal(err)
			}
			if id == "node-00" && n.Load("node-00") > 95 {
				t.Error("least-loaded placed onto the hottest node")
			}
		}
		if n.Load("node-00") != 90 {
			t.Errorf("hot node received work: load = %v", n.Load("node-00"))
		}
		util := n.Utilization()
		// Spread among the cold nodes must be tight: <= one service weight.
		minU, maxU := 2.0, -1.0
		for id, u := range util {
			if id == "node-00" {
				continue
			}
			if u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		if maxU-minU > 0.11 {
			t.Errorf("utilization spread too wide: %v", util)
		}
	})

	t.Run("locality", func(t *testing.T) {
		n, _ := Star(cfg(4))
		s := Locality{}
		// Preferred node honored while it has headroom.
		id, err := s.Place(ServiceInfo{Name: "src", Weight: 10, PreferredNode: "node-02"}, n)
		if err != nil || id != "node-02" {
			t.Errorf("locality ignored preference: %v %v", id, err)
		}
		// Preferred node rejected when overloaded.
		_ = n.AddLoad("node-03", 95)
		id, err = s.Place(ServiceInfo{Name: "src2", Weight: 10, PreferredNode: "node-03"}, n)
		if err != nil {
			t.Fatal(err)
		}
		if id == "node-03" {
			t.Error("locality placed onto an overloaded node")
		}
		// Down preferred node skipped.
		_ = n.SetDown("node-02", true)
		id, err = s.Place(ServiceInfo{Name: "src3", Weight: 10, PreferredNode: "node-02"}, n)
		if err != nil {
			t.Fatal(err)
		}
		if id == "node-02" {
			t.Error("locality placed onto a down node")
		}
	})

	t.Run("no healthy nodes", func(t *testing.T) {
		n, _ := Star(cfg(2))
		_ = n.SetDown("node-00", true)
		_ = n.SetDown("node-01", true)
		for _, s := range []Strategy{&RoundRobin{}, NewRandomPlacement(1), LeastLoaded{}, Locality{}} {
			if _, err := s.Place(ServiceInfo{Name: "x", Weight: 1}, n); err == nil {
				t.Errorf("%s placed with no healthy nodes", s.Name())
			}
		}
	})
}

func TestNewStrategy(t *testing.T) {
	for _, name := range []string{"round-robin", "random", "least-loaded", "locality"} {
		s, err := NewStrategy(name, 1)
		if err != nil || s.Name() != name {
			t.Errorf("NewStrategy(%s) = %v, %v", name, s, err)
		}
	}
	if _, err := NewStrategy("astrology", 1); err == nil {
		t.Error("unknown strategy must fail")
	}
}

// Property: for random topologies, routing is symmetric in latency.
func TestQuickRouteSymmetry(t *testing.T) {
	f := func(seed int64, a8, b8 uint8) bool {
		c := cfg(6)
		c.Seed = seed
		n, err := Random(c)
		if err != nil {
			return false
		}
		ids := n.Nodes()
		a, b := ids[int(a8)%len(ids)], ids[int(b8)%len(ids)]
		_, d1, err1 := n.Route(a, b)
		_, d2, err2 := n.Route(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		// Latency sums accumulate in opposite hop orders; float addition is
		// not associative, so compare with a tolerance.
		diff := d1 - d2
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlowCounterIsTheFlowsAccount(t *testing.T) {
	n, _ := Star(cfg(3))
	if _, err := n.AllocateFlow("f", "node-00", "node-01", dsn.QoS{MinBandwidthKbps: 10}); err != nil {
		t.Fatal(err)
	}
	if n.FlowCounter("ghost") != nil {
		t.Error("unknown flow must resolve to no counter")
	}
	c := n.FlowCounter("f")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1, 64)
				n.RecordTransfer("f", 1, 64)
			}
		}()
	}
	wg.Wait()
	if tuples, bytes := n.TransferStats("f"); tuples != 8000 || bytes != 8000*64 {
		t.Errorf("stats = %d, %d, want 8000 and %d", tuples, bytes, 8000*64)
	}
}

func TestRerouteFlowKeepsIdentityAndAccount(t *testing.T) {
	n, _ := Star(cfg(3))
	if _, err := n.AllocateFlow("f", "node-00", "node-01", dsn.QoS{MinBandwidthKbps: 100}); err != nil {
		t.Fatal(err)
	}
	c := n.FlowCounter("f")
	c.Add(7, 70)
	before, _ := n.Flow("f")

	if err := n.RerouteFlow("f", "node-00", "node-02", dsn.QoS{MinBandwidthKbps: 100}); err != nil {
		t.Fatal(err)
	}
	after, _ := n.Flow("f")
	if after.To != "node-02" || after.Path[len(after.Path)-1] != "node-02" {
		t.Errorf("rerouted flow = %+v", after)
	}
	// The account a running generation resolved still is the flow's.
	c.Add(1, 10)
	if n.FlowCounter("f") != c {
		t.Error("reroute replaced the flow's counter")
	}
	if tuples, bytes := n.TransferStats("f"); tuples != 8 || bytes != 80 {
		t.Errorf("stats after reroute = %d, %d, want 8 and 80", tuples, bytes)
	}
	// Reservations moved with it: the old path's last hop is free again.
	last := len(before.Path) - 1
	if free, _ := n.LinkFree(before.Path[last-1], before.Path[last]); free != 1000 {
		t.Errorf("old last hop has %v free, want all of it back", free)
	}

	// A reroute that cannot be admitted leaves the flow as it was.
	if err := n.RerouteFlow("f", "node-00", "node-01", dsn.QoS{MinBandwidthKbps: 1e9}); err == nil {
		t.Fatal("reroute beyond link capacity must fail")
	}
	kept, _ := n.Flow("f")
	if kept.To != "node-02" || kept.ReservedKbps != 100 {
		t.Errorf("failed reroute changed the flow: %+v", kept)
	}
	last = len(kept.Path) - 1
	if free, _ := n.LinkFree(kept.Path[last-1], kept.Path[last]); free != 900 {
		t.Errorf("failed reroute left %v free on the kept path, want the reservation restored", free)
	}
	if err := n.RerouteFlow("ghost", "node-00", "node-01", dsn.QoS{}); err == nil {
		t.Error("unknown flow must fail")
	}
}
