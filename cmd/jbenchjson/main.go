// Command jbenchjson diffs two committed results of the end-to-end
// benchmark, offline:
//
//	go run ./bench | jq -s . > NEW.json
//	go run ./cmd/jbenchjson BENCH_30.json NEW.json
//
// Each file is one default `go run ./bench` run: a JSON array of its
// result lines, one per workload in BENCHMARK.json order. BENCHMARK.json,
// read from the current directory, names the workloads and gives each
// end-to-end metric its direction and bound.
//
// It prints one row per workload and end-to-end metric: old and new
// value, the relative change and a verdict: unchanged, within (moved
// less than the bound), better, or WORSE (moved past the bound the
// wrong way). An old value of 0 is no exception: any move from it is
// past every bound.
//
// Exit status: 1 when NEW holds a workload that is not correct or has
// failed operations; 2 when an argument or a file is unusable,
// including a file whose workload count is not BENCHMARK.json's;
// otherwise 0. A WORSE row alone does not fail: one run per side
// cannot tell a regression on a box that varies identical work by up
// to 2x; alternating pairs of runs can.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// contract is the part of BENCHMARK.json this command reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is one workload's line of `go run ./bench` output.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	os.Exit(run("BENCHMARK.json", os.Args[1:], os.Stdout, os.Stderr))
}

func run(contractPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 || strings.HasPrefix(args[0], "-") || strings.HasPrefix(args[1], "-") {
		fmt.Fprintln(stderr, "usage: jbenchjson OLD.json NEW.json  (run where BENCHMARK.json is)")
		return 2
	}
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		fmt.Fprintf(stderr, "jbenchjson: %v\n", err)
		return 2
	}
	var old, cur []result
	for i, p := range []*[]result{&old, &cur} {
		if err := readJSON(args[i], p); err != nil {
			fmt.Fprintf(stderr, "jbenchjson: %v\n", err)
			return 2
		}
		if len(*p) != len(c.Workloads) {
			fmt.Fprintf(stderr, "jbenchjson: %s holds %d workloads, %s lists %d\n", args[i], len(*p), contractPath, len(c.Workloads))
			return 2
		}
	}

	code := 0
	for i, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			o, inOld := old[i].Metrics[m.Name]
			n, inNew := cur[i].Metrics[m.Name]
			if !inOld || !inNew {
				fmt.Fprintf(stderr, "jbenchjson: %s: metric %s missing\n", w.Name, m.Name)
				return 2
			}
			verdict, change := judge(o.Value, n.Value, m)
			fmt.Fprintf(stdout, "%-16s %-21s %14.6g -> %-14.6g %-8s %+8.1f%%  %-9s (bound %.1f%%)\n",
				w.Name, m.Name, o.Value, n.Value, m.Unit, 100*change, verdict, 100*m.Bound)
		}
		if !cur[i].Correct || cur[i].Failed != 0 {
			fmt.Fprintf(stderr, "jbenchjson: %s in %s: correct %t, %d failed operations\n", w.Name, args[1], cur[i].Correct, cur[i].Failed)
			code = 1
		}
	}
	return code
}

// judge classifies the move from old to cur against m's bound. change
// is relative to old; from 0 any move is infinite.
func judge(old, cur float64, m metric) (string, float64) {
	if cur == old {
		return "unchanged", 0
	}
	change := (cur - old) / math.Abs(old)
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > m.Bound:
		return "WORSE", change
	case worse < -m.Bound:
		return "better", change
	}
	return "within", change
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
