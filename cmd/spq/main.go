// Command spq evaluates sPaQL stochastic package queries from the command
// line, against either a CSV file (deterministic columns) or one of the
// built-in paper workloads (galaxy, portfolio, tpch).
//
// Examples:
//
//	spq -workload portfolio -list
//	spq -workload portfolio -paper-query Q1 -n 200
//	spq -workload galaxy -paper-query Q3 -method naive
//	spq -csv trades.csv -query 'SELECT PACKAGE(*) FROM trades SUCH THAT SUM(price) <= 100 MAXIMIZE SUM(price)'
//	spq -workload tpch -paper-query Q1 -explain
//
// With -server the query is not evaluated in-process: it is submitted to a
// running spqd through the v1 async API (spq/client), streaming progress
// (with -trace) and printing the remote result. The spqd must have the
// query's table loaded (e.g. the same -workload); -method is passed through
// verbatim:
//
//	spqd -workload portfolio -n 200 &
//	spq -workload portfolio -paper-query Q1 -n 200 -server http://localhost:8723
//
// OPERATIONS.md holds the canonical flag reference for both spq and spqd.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"spq"
	"spq/client"
	"spq/internal/workload"
)

func main() {
	var (
		queryText  = flag.String("query", "", "sPaQL query text")
		queryFile  = flag.String("query-file", "", "file containing the sPaQL query")
		csvPath    = flag.String("csv", "", "CSV file to load as a (deterministic) table")
		wname      = flag.String("workload", "", "built-in workload: "+strings.Join(workload.Names(), " | "))
		paperQuery = flag.String("paper-query", "", "run a Table 3 query of the workload (Q1..Q8)")
		list       = flag.Bool("list", false, "list the workload's queries and exit")
		n          = flag.Int("n", 300, "workload size (tuples; stocks for portfolio)")
		seed       = flag.Uint64("seed", 42, "random seed (data and optimization scenarios)")
		method     = flag.String("method", "summarysearch", "evaluation method: summarysearch | naive | sketch")
		valM       = flag.Int("validation", 5000, "out-of-sample validation scenarios (M̂)")
		initialM   = flag.Int("m", 20, "initial optimization scenarios (M)")
		maxM       = flag.Int("maxm", 200, "maximum optimization scenarios")
		fixedZ     = flag.Int("z", 0, "fixed number of summaries (0 = auto-escalate)")
		explain    = flag.Bool("explain", false, "print the query plan instead of solving")
		trace      = flag.Bool("trace", false, "print the optimize/validate iteration history")
		showRows   = flag.Int("rows", 10, "package rows to print")
		server     = flag.String("server", "", "submit to a remote spqd at this base URL (v1 async API) instead of solving in-process")
		traceTree  = flag.Bool("trace-tree", false, "print the server-side span tree after the job finishes (requires -server)")
	)
	flag.Parse()

	if err := run(*queryText, *queryFile, *csvPath, *wname, *paperQuery, *list, *n,
		*seed, *method, *valM, *initialM, *maxM, *fixedZ, *explain, *trace, *traceTree, *showRows, *server); err != nil {
		fmt.Fprintln(os.Stderr, "spq:", err)
		os.Exit(1)
	}
}

func run(queryText, queryFile, csvPath, wname, paperQuery string, list bool, n int,
	seed uint64, method string, valM, initialM, maxM, fixedZ int, explain, trace, traceTree bool, showRows int, server string) error {

	db := spq.NewDB()
	var inst *workload.Instance

	switch {
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		name := strings.TrimSuffix(filepath.Base(csvPath), filepath.Ext(csvPath))
		rel, err := spq.ReadCSV(name, f)
		if err != nil {
			return err
		}
		if err := db.Register(rel); err != nil {
			return err
		}
		fmt.Printf("loaded %s: %d tuples, columns %v\n", name, rel.N(), rel.DetNames())
	case wname != "":
		var err error
		if inst, err = workload.ByName(wname, workload.Config{N: n, Seed: seed}); err != nil {
			return err
		}
		for _, name := range inst.TableNames() {
			if err := db.Register(inst.Tables[name]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("provide -csv or -workload (see -help)")
	}

	if list {
		if inst == nil {
			return fmt.Errorf("-list requires -workload")
		}
		for _, q := range inst.Queries {
			fmt.Printf("%-4s [%s] %s\n     %s\n", q.ID, q.Table, q.Description, oneLine(q.SPaQL))
		}
		return nil
	}

	text := queryText
	if queryFile != "" {
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		text = string(data)
	}
	if paperQuery != "" {
		if inst == nil {
			return fmt.Errorf("-paper-query requires -workload")
		}
		q, ok := inst.QueryByID(strings.ToUpper(paperQuery))
		if !ok {
			return fmt.Errorf("workload %s has no query %s", wname, paperQuery)
		}
		text = q.SPaQL
		if fixedZ == 0 {
			fixedZ = q.FixedZ
		}
		fmt.Printf("running %s %s: %s\n", wname, q.ID, q.Description)
	}
	if text == "" {
		return fmt.Errorf("no query: provide -query, -query-file or -paper-query")
	}

	if server != "" {
		if explain {
			return fmt.Errorf("-explain is local-only; drop -server")
		}
		return runRemote(server, text, method, seed, valM, initialM, maxM, fixedZ, trace, traceTree, showRows)
	}
	if traceTree {
		return fmt.Errorf("-trace-tree needs -server (the span tree is collected by the daemon)")
	}

	if explain {
		out, err := db.Explain(text, initialM)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	opts := &spq.Options{
		Seed:        seed,
		ValidationM: valM,
		InitialM:    initialM,
		IncrementM:  initialM,
		MaxM:        maxM,
		FixedZ:      fixedZ,
	}
	var res *spq.Result
	var err error
	switch method {
	case "naive":
		res, err = db.QueryNaive(text, opts)
	case "sketch":
		var stats *spq.SketchStats
		res, stats, err = db.QuerySketch(text, opts, nil)
		if err == nil {
			fmt.Printf("sketch: %d groups, %d candidates refined (fallback: %v)\n",
				stats.Groups, stats.Candidates, stats.FellBack)
		}
	case "summarysearch", "":
		res, err = db.Query(text, opts)
	default:
		return fmt.Errorf("unknown method %q (summarysearch | naive | sketch)", method)
	}
	if err != nil {
		return err
	}
	fmt.Println(res)
	fmt.Printf("time: %v, iterations: %d\n", res.TotalTime.Round(1e6), len(res.Iterations))
	for k, surplus := range res.Surpluses {
		fmt.Printf("constraint %d p-surplus: %+.4f\n", k+1, surplus)
	}
	if trace {
		fmt.Println()
		fmt.Print(res.RenderHistory())
	}
	printPackage(res, showRows)
	return nil
}

// runRemote submits the query to a running spqd through the v1 async API
// and renders the remote job: progress events stream as they happen (with
// -trace), then the final package.
func runRemote(server, text, method string, seed uint64, valM, initialM, maxM, fixedZ int, trace, traceTree bool, showRows int) error {
	c, err := client.New(server)
	if err != nil {
		return err
	}
	ctx := context.Background()
	job, err := c.Submit(ctx, client.SubmitRequest{
		Query:  text,
		Method: method,
		Options: &client.SolveOptions{
			Seed:        seed,
			ValidationM: valM,
			InitialM:    initialM,
			IncrementM:  initialM,
			MaxM:        maxM,
			FixedZ:      fixedZ,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s to %s\n", job.ID, server)
	final, err := c.Stream(ctx, job.ID, func(p client.Progress) {
		if trace {
			phase := p.Phase
			if phase == "" {
				phase = "solve"
			}
			fmt.Printf("  %-14s iter %-3d M=%-5d Z=%-3d feasible=%-5v objective=%.6g best=%.6g (%dms)\n",
				phase, p.Iteration, p.M, p.Z, p.Feasible, p.Objective, p.BestObjective, p.ElapsedMS)
		}
	})
	if err != nil {
		return err
	}
	if err := final.Err(); err != nil {
		return err
	}
	r := final.Result
	status := "INFEASIBLE"
	if r.Feasible {
		status = "feasible"
	}
	fmt.Printf("package: %s, %d distinct tuples, size %.0f, objective %.6g (M=%d", status, len(r.Package), r.PackageSize, r.Objective, r.M)
	if r.Z > 0 {
		fmt.Printf(", Z=%d", r.Z)
	}
	fmt.Println(")")
	fmt.Printf("server: wait %dms, solve %dms, %d iterations", r.WaitMS, r.SolveMS, r.Iterations)
	if r.ResultCacheHit {
		fmt.Print(", result-cache hit")
	} else if r.PlanCacheHit {
		fmt.Print(", plan-cache hit")
	}
	fmt.Println()
	for k, surplus := range r.Surpluses {
		fmt.Printf("constraint %d p-surplus: %+.4f\n", k+1, surplus)
	}
	if traceTree {
		tr, err := c.Trace(ctx, job.ID)
		if err != nil {
			return fmt.Errorf("fetch trace: %w", err)
		}
		fmt.Println()
		fmt.Printf("trace %s:\n", tr.TraceID)
		fmt.Print(tr.Render())
	}
	if len(r.Package) == 0 {
		fmt.Println("(empty package)")
		return nil
	}
	fmt.Printf("%-8s %-6s\n", "tuple", "count")
	for i, pt := range r.Package {
		if i >= showRows {
			fmt.Printf("... (%d more rows)\n", len(r.Package)-showRows)
			break
		}
		fmt.Printf("%-8d %-6d\n", pt.Tuple, pt.Count)
	}
	return nil
}

func printPackage(res *spq.Result, limit int) {
	mult := res.Multiplicities()
	if len(mult) == 0 {
		fmt.Println("(empty package)")
		return
	}
	var ids []int
	for id := range mult {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cols := res.Rel.DetNames()
	fmt.Printf("%-8s %-6s", "tuple", "count")
	for _, c := range cols {
		fmt.Printf(" %12s", c)
	}
	fmt.Println()
	for i, id := range ids {
		if i >= limit {
			fmt.Printf("... (%d more rows)\n", len(ids)-limit)
			break
		}
		// The result relation may be a WHERE view; locate the view row.
		fmt.Printf("%-8d %-6d", id, mult[id])
		for _, c := range cols {
			col, err := res.Rel.Det(c)
			if err != nil {
				continue
			}
			fmt.Printf(" %12.4g", valueForBaseID(res, col, id))
		}
		fmt.Println()
	}
}

// valueForBaseID finds the view-row value whose base index is id.
func valueForBaseID(res *spq.Result, col []float64, id int) float64 {
	for i := range col {
		if res.Rel.OrigIndex(i) == id {
			return col[i]
		}
	}
	return 0
}

func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }
