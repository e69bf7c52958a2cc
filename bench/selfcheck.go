package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// selfcheckMain runs two sets of `runs` runs of every workload, each run
// with a seed of its own, and prints per metric the median and quartiles of
// each set, each set's spread (the distance between its quartiles as a
// share of its median), and how far the second median is from the first as
// a share of the metric's bound. It fails when a median moved by more than
// its bound between two sets of runs of the same code, or a run failed.
// The output is committed as NOISE.md.
func selfcheckMain(opts runOpts, runs int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("# Run-to-run noise of the benchmark\n\n")
	fmt.Printf("Output of `bash bench/run.sh -selfcheck -runs %d -seconds %g`: two sets of %d runs per workload,\n", runs, opts.seconds, runs)
	fmt.Printf("every run with a seed of its own. `spread` is the distance between the first and third\n")
	fmt.Printf("quartile as a share of the median; `moved` is how far the second set's median is from the\n")
	fmt.Printf("first's, towards worse, as a share of the metric's bound.\n\n")
	failed := false
	seed := opts.seed
	for _, w := range workloads {
		opts.w = w
		sets := [2]map[string][]float64{{}, {}}
		measured := [2]map[string][]float64{{}, {}} // the same runs before the box factor
		starved, wall := 0, 0.0
		for set := range sets {
			for i := 0; i < runs; i++ {
				opts.seed = seed
				seed++
				rep, err := runWorkload(opts)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, opts.seed, err)
					return 1
				}
				if rep.Failed > 0 {
					fmt.Printf("%s seed %d: %d operations failed: %v\n\n", w.name, opts.seed, rep.Failed, rep.Errors)
					failed = true
				}
				if rep.Hygiene.Starved {
					starved++
				}
				wall += rep.Hygiene.WallSeconds
				for name, m := range rep.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
				for name, v := range rep.AsMeasured {
					measured[set][name] = append(measured[set][name], v)
				}
			}
		}
		fmt.Printf("## %s\n\n%d runs, %.1f s each on average, %d flagged starved.\n\n", w.name, 2*runs, wall/float64(2*runs), starved)
		fmt.Printf("| metric | unit | bound | set 1 q1 / median / q3 | spread | set 2 q1 / median / q3 | spread | moved |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|\n")
		for _, def := range bf.EndToEnd {
			a, b := sets[0][def.Name], sets[1][def.Name]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			worse := (b2 - a2) / a2
			if def.Better == "higher" {
				worse = -worse
			}
			moved := worse / def.Bound
			mark := ""
			if moved > 1 {
				mark, failed = " **over**", true
			}
			fmt.Printf("| %s | %s | %.0f%% | %.4g / %.4g / %.4g | %.1f%% | %.4g / %.4g / %.4g | %.1f%% | %+.0f%%%s |\n",
				def.Name, def.Unit, def.Bound*100, a1, a2, a3, (a3-a1)/a2*100, b1, b2, b3, (b3-b1)/b2*100, moved*100, mark)
		}
		fmt.Printf("\nThe same runs as measured, before the box factor (plain medians of the rounds and of all\n")
		fmt.Printf("query samples):\n\n")
		fmt.Printf("| as measured | set 1 q1 / median / q3 | spread | set 2 q1 / median / q3 | spread |\n|---|---|---|---|---|\n")
		for _, name := range timeBasedMetrics {
			a1, a2, a3 := quartiles(measured[0][name])
			b1, b2, b3 := quartiles(measured[1][name])
			fmt.Printf("| %s | %.4g / %.4g / %.4g | %.1f%% | %.4g / %.4g / %.4g | %.1f%% |\n",
				name, a1, a2, a3, (a3-a1)/a2*100, b1, b2, b3, (b3-b1)/b2*100)
		}
		fmt.Println()
	}
	if failed {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: every median stayed within its bound, and no operation failed.")
	return 0
}
