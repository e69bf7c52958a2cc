package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The driver re-executes its own binary as the child; under `go test` that
// binary is the test binary, so TestMain plays both extra roles.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if dir := os.Getenv("BENCH_TEST_HOLD_SUT"); dir != "" {
		holdSUT(dir)
	}
	// The smoke runs mostly wait (for the child, for the live range), so let
	// all of them wait at once whatever GOMAXPROCS is.
	_ = flag.Set("test.parallel", "12")
	// Under -race a child would otherwise sleep a second before it exits.
	os.Setenv("GORACE", "atexit_sleep_ms=0")
	os.Exit(m.Run())
}

// Smoke sizes: a fortieth of the event rate and a fortieth of the run
// length; with the fixed preload, about a fiftieth of the committed work.
const (
	smokeHz      = 1.25
	smokeSeconds = 0.5
)

func smokeOpts(t *testing.T, w workload, traced bool) runOpts {
	dir := t.TempDir()
	return runOpts{w: w, seed: 7, seconds: smokeSeconds, hz: smokeHz, traced: traced,
		workdir: dir, outDir: filepath.Join(dir, "out")}
}

// TestSmoke runs every workload end to end at smoke scale, untraced and
// traced, and checks that the output carries exactly the metrics that
// BENCHMARK.json names, with their units and sample counts, and that the
// oracle found nothing wrong.
func TestSmoke(t *testing.T) {
	t.Parallel()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, bf.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			w, want := w, wantE2E
			if traced {
				want = wantLayer
			}
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				t.Parallel()
				opts := smokeOpts(t, w, traced)
				rep, err := runWorkload(opts)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 {
					t.Errorf("%d operations failed: %v", rep.Failed, rep.Errors)
				}
				if rep.Attempted < 1 {
					t.Errorf("attempted = %d", rep.Attempted)
				}
				for name, unit := range want {
					if m, ok := rep.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range rep.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				for _, name := range []string{"setup_s", "ingest_events_per_s", "ingest_cpu_us_per_event",
					"select_ms_p50", "agg_ms_p50", "fresh_ms_p50", "fresh_ms_p90", "queries_checked"} {
					if rep.N[name] < 1 {
						t.Errorf("n of %s = %d", name, rep.N[name])
					}
				}
				if traced {
					if _, err := os.Stat(rep.SpanFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				} else {
					for name, m := range rep.Metrics {
						// A smoke round is a few milliseconds of CPU, below the
						// 10 ms tick /proc counts in.
						if !(m.Value > 0) && name != "ingest_cpu_us_per_event" {
							t.Errorf("end-to-end metric %s = %v", name, m.Value)
						}
					}
				}
				if _, err := json.Marshal(rep.Metrics); err != nil {
					t.Errorf("metrics do not encode: %v", err)
				}
			})
		}
	}
}

// TestOracleFlagsMissingEvent builds the replies a correct store would give
// and checks that the oracle accepts them, and rejects them once one event
// is removed.
func TestOracleFlagsMissingEvent(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"chain-mem", "passthrough-durable"} {
		w, _ := workloadByName(name)
		orc, err := newOracle(w, fleetSpecs(3, smokeHz, nil))
		if err != nil {
			t.Fatal(err)
		}
		orc.extend(3)
		want := orc.minute(1)
		page := func(skip string) []byte {
			var rep struct {
				Count     int              `json:"count"`
				Truncated bool             `json:"truncated"`
				Events    []map[string]any `json:"events"`
			}
			for src, list := range want {
				for i, e := range list {
					if src == skip && i == len(list)/2 {
						continue
					}
					ev := map[string]any{"_source": src, "_time": orc.minuteStart(1).Format(time.RFC3339Nano)}
					for k, v := range e.num {
						ev[k] = v
					}
					for k, v := range e.str {
						ev[k] = v
					}
					rep.Events = append(rep.Events, map[string]any{"event": ev})
				}
			}
			rep.Count = len(rep.Events)
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		if err := orc.checkSelect(page(""), 1, 1<<20); err != nil {
			t.Errorf("%s: oracle rejects the correct page: %v", name, err)
		}
		if err := orc.checkSelect(page("humidity-2"), 1, 1<<20); err == nil {
			t.Errorf("%s: oracle accepts a page with one event removed", name)
		}

		rows := orc.avgRows(0, 2)
		body, _ := json.Marshal(map[string]any{"rows": rows})
		if err := orc.checkAggregate(body, 0, 2); err != nil {
			t.Errorf("%s: oracle rejects the correct rows: %v", name, err)
		}
		rows[0].Count--
		body, _ = json.Marshal(map[string]any{"rows": rows})
		if err := orc.checkAggregate(body, 0, 2); err == nil {
			t.Errorf("%s: oracle accepts rows aggregated over one event fewer", name)
		}
		if got, want := orc.stored(0, 3), orc.stored(0, 2)+orc.stored(2, 3); got != want {
			t.Errorf("%s: stored(0,3) = %d, want %d", name, got, want)
		}
	}
}

// holdSUT is the helper process of TestChildReapedWhenDriverKilled: a
// driver that starts a durable child, reports it, and hangs.
func holdSUT(dir string) {
	w, _ := workloadByName("passthrough-durable")
	s, err := startSUT(w, 1, smokeHz, dir, nil)
	if err != nil {
		fmt.Println("ERROR", err)
		os.Exit(1)
	}
	fmt.Println("CHILD", s.pid())
	time.Sleep(time.Hour)
}

// TestChildReapedWhenDriverKilled kills a driver outright and checks that
// its child exits and removes its data directory all the same.
func TestChildReapedWhenDriverKilled(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	driver := exec.Command(self)
	driver.Env = append(os.Environ(), "BENCH_TEST_HOLD_SUT="+dir)
	out, err := driver.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("driver helper: %v", err)
	}
	pidText, ok := strings.CutPrefix(strings.TrimSpace(line), "CHILD ")
	if !ok {
		t.Fatalf("driver helper said %q", line)
	}
	pid, err := strconv.Atoi(pidText)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := filepath.Glob(filepath.Join(dir, "sut-data-*")); len(data) != 1 {
		t.Fatalf("child data directories before the kill: %v", data)
	}
	if err := driver.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = driver.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := syscall.Kill(pid, 0) == nil
		if stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
			// A zombie has exited; whether it is reaped is up to init.
			f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
			alive = alive && len(f) > 0 && f[0] != "Z"
		}
		data, _ := filepath.Glob(filepath.Join(dir, "sut-data-*"))
		if !alive && len(data) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the driver was killed: child alive=%v, data directories %v", alive, data)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBoxFactor checks that the box factor is the mean reading inside the
// unit, and the run's mean for a unit too short to hold one.
func TestBoxFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := &boxReference{}
	for i, ms := range []float64{1.2, 1.2, 2.4, 3.6, 1.2} {
		b.at, b.ms = append(b.at, t0.Add(time.Duration(i)*time.Second)), append(b.ms, ms)
	}
	if got := b.factor(t0.Add(1500*time.Millisecond), t0.Add(3500*time.Millisecond)); got != 2.5 {
		t.Errorf("factor over readings 2.4 and 3.6 = %v, want 2.5", got)
	}
	if got, want := b.factor(t0.Add(100*time.Millisecond), t0.Add(200*time.Millisecond)), 1.6; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("factor over an empty unit = %v, want the run's %v", got, want)
	}
	if got := (&boxReference{}).factor(t0, t0.Add(time.Second)); got != 1 {
		t.Errorf("factor without readings = %v, want 1", got)
	}
}
