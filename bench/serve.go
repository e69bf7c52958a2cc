package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamloader/internal/executor"
	"streamloader/internal/geo"
	"streamloader/internal/monitor"
	"streamloader/internal/network"
	"streamloader/internal/obs"
	"streamloader/internal/persist"
	"streamloader/internal/pubsub"
	"streamloader/internal/sensor"
	"streamloader/internal/server"
	"streamloader/internal/stream"
	"streamloader/internal/stt"
	"streamloader/internal/viz"
	"streamloader/internal/warehouse"
)

// serveMain is the system under test: the driver re-executes itself as
// `bench serve`. It wires the system exactly as cmd/streamloader/main.go
// does with its defaults (star topology, 8 nodes, locality placement,
// default shards and segment sizes, production wall clock), except that the
// fleet is the benchmark's. That command cannot size its fleet, hence the
// duplicate; see README.md.
//
// The child prints "READY <url>" once it listens, and exits, removing its
// data directory, when its standard input closes. The driver holds the
// other end of that pipe, so the child goes away even if the driver is
// killed.
func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		seed    = fs.Int64("seed", 1, "fleet seed")
		hz      = fs.Float64("hz", defaultHz, "frequency of every source")
		retain  = fs.Int("retain", 0, "warehouse retention bound in events (0: unlimited)")
		durable = fs.Bool("durable", false, "give the warehouse a data directory under -workdir")
		workdir = fs.String("workdir", "", "directory the data directory is made in")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	netw, err := network.Build("star", network.TopologyConfig{Nodes: 8, Area: geo.Osaka, Capacity: 100, Seed: *seed})
	if err != nil {
		return fmt.Errorf("building network: %w", err)
	}
	broker := pubsub.NewBroker("main")
	sensors := map[string]*sensor.Sensor{}
	for _, spec := range fleetSpecs(*seed, *hz, netw.Nodes()) {
		s, err := sensor.New(spec)
		if err != nil {
			return err
		}
		if err := broker.Publish(s.Meta()); err != nil {
			return err
		}
		sensors[s.ID()] = s
	}

	cfg := warehouse.Config{Obs: obs.NewRegistry()}
	dataDir := ""
	if *durable {
		if dataDir, err = os.MkdirTemp(*workdir, "sut-data-"); err != nil {
			return err
		}
		defer os.RemoveAll(dataDir)
		sync, every, err := persist.ParseSyncPolicy("interval")
		if err != nil {
			return err
		}
		cfg.DataDir = dataDir
		cfg.Sync, cfg.SyncEvery = sync, every
		cfg.HotSegments = 2
	}
	wh, err := warehouse.Open(cfg)
	if err != nil {
		return fmt.Errorf("opening warehouse: %w", err)
	}
	if *retain > 0 {
		wh.SetRetention(*retain)
	}
	board, err := viz.NewBoard(geo.Osaka, 40, 20, "")
	if err != nil {
		return err
	}
	mon := monitor.New()
	strat, err := network.NewStrategy("locality", *seed)
	if err != nil {
		return err
	}
	exec, err := executor.New(executor.Config{
		Network: netw, Broker: broker, Strategy: strat, Monitor: mon,
		Clock: stream.WallClock{},
		Sensors: func(id string) (executor.SensorSource, bool) {
			s, ok := sensors[id]
			return s, ok
		},
		Sinks: func(kind, nodeID string, schema *stt.Schema) (executor.Sink, error) {
			switch kind {
			case "warehouse":
				return warehouse.Sink{W: wh}, nil
			case "viz":
				return board, nil
			default:
				return nil, fmt.Errorf("unknown sink %q", kind)
			}
		},
	})
	if err != nil {
		return err
	}
	srv := server.New(netw, broker, exec, mon, wh, board, sensors)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("READY http://%s\n", ln.Addr())

	stdinClosed := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		close(stdinClosed)
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case <-stdinClosed:
	case <-sig:
	case err := <-serveErr:
		return err
	}
	// Close the listener and every connection, then the store, so no
	// spiller writes into the data directory while it is being removed.
	_ = httpSrv.Close()
	closed := make(chan struct{})
	go func() {
		_ = wh.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
	}
	return nil
}
