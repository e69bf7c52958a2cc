// Command bench is streamLoader's whole-system benchmark: it runs one
// workload against a child process that is the real system behind its real
// HTTP server, checks every result against an oracle, and prints the
// end-to-end metrics, or with -trace 1 the per-layer ones. See README.md.
//
//	bash bench/run.sh -workload chain-mem -seed 1 [-seconds 20] [-trace 0|1]
//	bash bench/run.sh -selfcheck [-runs 5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(driverMain(os.Args[1:]))
}

func driverMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: chain-mem, passthrough-durable, query-under-ingest, views-durable")
		seed      = fs.Int64("seed", 1, "seed of the fleet and of the query positions")
		seconds   = fs.Float64("seconds", nominalSeconds, "measured seconds; the amount of work scales with it")
		trace     = fs.Int("trace", 0, "1: print the per-layer metrics and write the span file")
		workdir   = fs.String("workdir", "", "directory for child data directories (default: a temporary one)")
		selfcheck = fs.Bool("selfcheck", false, "run two sets of runs per workload and compare their medians with the bounds")
		runs      = fs.Int("runs", 5, "runs per set for -selfcheck")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workdir == "" {
		dir, err := os.MkdirTemp("", "streambench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		*workdir = dir
	}
	opts := runOpts{seed: *seed, seconds: *seconds, hz: defaultHz, traced: *trace == 1,
		workdir: *workdir, outDir: filepath.Join("bench", "out"), log: os.Stderr}
	if *selfcheck {
		return selfcheckMain(opts, *runs)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	opts.w = w
	rep, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printReport(rep)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// timeBasedMetrics are the end-to-end metrics reported at the reference box
// speed; the others (a size, a timer) are as measured.
var timeBasedMetrics = []string{"setup_s", "ingest_events_per_s", "ingest_cpu_us_per_event", "select_ms_p50", "agg_ms_p50"}

// printReport prints every metric by name with its unit, the run's
// conditions, and last the one-line JSON object the benchmark contract asks
// for.
func printReport(rep *report) {
	fmt.Printf("workload %s seed %d\n", rep.Workload, rep.Seed)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		if n, ok := rep.N[name]; ok {
			fmt.Printf("  %-48s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, n)
		} else {
			fmt.Printf("  %-48s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	if len(rep.AsMeasured) > 0 {
		fmt.Printf("  as measured (box factor %.3f):", rep.Hygiene.BoxFactor)
		for _, def := range timeBasedMetrics {
			fmt.Printf(" %s %.4g", def, rep.AsMeasured[def])
		}
		fmt.Println()
	}
	h := rep.Hygiene
	fmt.Printf("  ops_attempted %d ops_failed %d queries_checked %d\n", rep.Attempted, rep.Failed, rep.N["queries_checked"])
	fmt.Printf("  nproc %d GOMAXPROCS %d %s load1 %.2f -> %.2f gen_late_ms_p90 %.2f wall %.1fs starved=%v\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.LoadStart, h.LoadEnd, h.GenLateMSP90, h.WallSeconds, h.Starved)
	for _, e := range rep.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
	if len(rep.SelfTimes) > 0 {
		fmt.Printf("  span self times (%s):\n", rep.SpanFile)
		for _, s := range rep.SelfTimes {
			fmt.Printf("    %-28s %8d spans %12.2f ms\n", s.Name, s.Count, s.SelfMS)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": rep.Failed == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": rep.Metrics,
	})
	fmt.Println(string(line))
}
