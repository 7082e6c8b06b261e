package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// endToEnd lists the end-to-end metrics. bound is the share of the parent's
// median by which a later change may make the metric worse; BENCHMARK.json
// carries the same numbers and bench_test.go holds the two together. The
// timing bounds are the widest the contract allows because single runs of one
// commit on this shared host drift by 12 % within the hour and by more in a
// busy one (README, "Why the bounds are not 10 %"). agree is what -selfcheck
// holds two interleaved sets of runs of one commit to: interleaving cancels
// slow drift, so it is the issue's 10 % on timings, 2 % on allocation and
// nothing at all on the two quality metrics. Allocation is bounded at 3 %, not
// 2 %, for serve_mixed alone: which requests hit the LRU depends on how the
// seed orders them, and ten seeds spread by up to 1.4 % there (0.0 % elsewhere).
var endToEnd = []struct {
	name, unit, better string
	bound, agree       float64
}{
	{"setup_s", "s", "lower", 0.25, 0.10},
	{"query_p50_ms", "ms", "lower", 0.25, 0.10},
	{"query_p90_ms", "ms", "lower", 0.25, 0.10},
	{"queries_per_s", "1/s", "higher", 0.25, 0.10},
	{"alloc_mb_per_query", "MB", "lower", 0.03, 0.02},
	{"feasible_frac", "frac", "higher", 0.001, 0},
	{"approx_ratio", "ratio", "lower", 0.01, 0},
}

// selfCheck is the repeatability acceptance test, and the first thing to run
// on a new host: every workload as two interleaved sets of three fresh
// processes (A B A B A B). Two sets of the same code must agree within each
// metric's agree share.
func selfCheck(seed uint64, seconds int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "host: %s\n", hostDescriptor())
	fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "limit")
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 6; i++ {
			var out bytes.Buffer
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: run %d of %s: %v\n", i, w.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(stderr, "bench: run %d of %s printed no result: %v\n", i, w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "bench: run %d of %s: %d of %d ops failed\n", i, w.name, res.Failed, res.Attempted)
				bad++
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := ""
			if diff > m.agree {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "%-12s %-20s %14.6g %14.6g %7.2f%% %6.1f%%%s\n", w.name, m.name, a, b, 100*diff, 100*m.agree, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: every pair of set medians agrees within its limit")
	return 0
}
