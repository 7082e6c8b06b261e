// Command bench is the repository's benchmark: four fixed-work workloads over
// the stochastic-package-query engine, each reduced to seven end-to-end
// metrics, plus a traced run that attributes the time to layers. README.md
// in this directory defines every metric and says why each workload exists.
//
//	go -C bench run . -workload solve_bound -seed 1
//	go -C bench run . -workload scan_bound -seed 1 -trace 1
//	go -C bench run . -selfcheck
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the rounds of one run, set-up
// and timed phase, add up to at most this much (sizes.*Rounds).
const defaultSeconds = 30

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: solve_bound, scan_bound, serve_mixed or delta_churn")
		seed      = fs.Uint64("seed", 1, "orders the op list and draws the delta cells; the same seed gives the same inputs")
		seconds   = fs.Int("seconds", defaultSeconds, "measuring time: caps the workload's fixed number of rounds (set-up + timed phase), never below 3")
		trace     = fs.Int("trace", 0, "1 runs the traced round and prints the per-layer metrics instead of the end-to-end ones")
		traceOut  = fs.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/trace/<workload>.json)")
		smoke     = fs.Bool("smoke", false, "tiny sizes: every op kind in seconds (what bench_test.go runs)")
		selfcheck = fs.Bool("selfcheck", false, "run every workload as two interleaved sets of three fresh processes and compare their medians")
		refresh   = fs.Bool("reference", false, "recompute reference.json (best of 8 seeds at 4x MaxM) and print it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Two busy threads at most, whatever the host has: the numbers are for a
	// 2-core box and must not change shape on a larger one.
	runtime.GOMAXPROCS(2)
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	switch {
	case *selfcheck:
		return selfCheck(*seed, *seconds, stdout, stderr)
	case *refresh:
		return writeReference(sz, stdout, stderr)
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	var rep *runReport
	var err error
	if *trace != 0 {
		out := *traceOut
		if out == "" {
			out = filepath.Join(".bench_build", "trace", def.name+".json")
		}
		rep, err = traced(def, sz, *seed, out)
	} else {
		rep, err = measure(def, sz, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep, *trace != 0)
	if rep.guardErr != nil {
		fmt.Fprintln(stderr, "bench:", rep.guardErr)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printReport(w io.Writer, rep *runReport, traced bool) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "workload=%s seed=%d rounds=%d ops_per_round=%d clients=%d traced=%t\n",
		rep.workload, rep.seed, rep.rounds, rep.ops, rep.clients, traced)
	fmt.Fprintf(bw, "host: %s\n", hostDescriptor())
	for _, name := range rep.order {
		m := rep.metrics[name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if s, ok := rep.spreads[name]; ok {
			line += fmt.Sprintf("  round_spread=%.3f", s)
		}
		fmt.Fprintln(bw, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(bw, "attempted=%d failed=%d\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintln(bw, "  failed:", f)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(bw, "  note:", n)
	}
	line, err := json.Marshal(result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	bw.Write(line)
	bw.WriteByte('\n')
}

// hostDescriptor says where a number came from.
func hostDescriptor() string {
	return fmt.Sprintf("cores=%d cpu=%q gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; the
// driver's checkouts are not repositories, and say so.
func commit() string {
	for _, dir := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(h, "ref: "); ok {
			raw, err := os.ReadFile(filepath.Join(dir, ".git", ref))
			if err != nil {
				return "unknown"
			}
			h = strings.TrimSpace(string(raw))
		}
		if len(h) > 12 {
			h = h[:12]
		}
		return h
	}
	return "none"
}

// processCPU is user + system CPU time of this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
