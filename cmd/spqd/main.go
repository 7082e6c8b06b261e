// Command spqd is the long-running sPaQL query daemon: it loads one or more
// of the built-in paper workloads (or a CSV table) into an in-memory
// database and serves the concurrent execution engine's HTTP/JSON API: the
// versioned async API under /v1/queries (see DESIGN.md "API v1" and the
// spq/client Go client, whose Run submits and waits in one call).
//
//	spqd -addr :8723 -workload portfolio,galaxy -n 300
//	curl -s localhost:8723/healthz
//	curl -s localhost:8723/stats
//	curl -s -X POST localhost:8723/v1/queries -d '{
//	  "query": "SELECT PACKAGE(*) FROM trades_2day_all SUCH THAT SUM(price) <= 1000 AND SUM(gain) >= -10 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)",
//	  "options": {"validation_m": 2000, "max_m": 60, "fixed_z": 1}
//	}'
//	curl -s 'localhost:8723/v1/queries/q-1?wait_ms=5000'
//
// One process is the whole deployment: the data, the caches and the solver
// live in this daemon. Answers are bit-identical for identical data
// (-workload/-n/-seed/-means) and request options.
//
// OPERATIONS.md is the canonical reference for every flag, the /stats
// field glossary, and tuning; this comment only sketches the surface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"spq"
	"spq/internal/engine"
	"spq/internal/obs"
	"spq/internal/workload"
)

// config collects every flag; OPERATIONS.md documents them.
type config struct {
	addr      string
	workloads string
	csvPath   string
	n         int
	seed      uint64
	meansM    int

	maxInFlight int
	maxQueue    int
	cacheSize   int
	resultCache int
	timeout     time.Duration
	parallelism int
	maxJobs     int
	jobHistory  int

	logFormat string
	slowQuery time.Duration
	pprofAddr string

	readOnly bool

	tenants string
	classes string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8723", "listen address")
	flag.StringVar(&cfg.workloads, "workload", "portfolio", "comma-separated built-in workloads to load: "+strings.Join(workload.Names(), " | "))
	flag.StringVar(&cfg.csvPath, "csv", "", "CSV file to load as an additional (deterministic) table")
	flag.IntVar(&cfg.n, "n", 300, "workload size (tuples; stocks for portfolio)")
	flag.Uint64Var(&cfg.seed, "seed", 42, "workload data seed")
	flag.IntVar(&cfg.meansM, "means", 2000, "scenarios for attribute-mean precomputation (>= 1)")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "max concurrent solves (0 = one per CPU)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, "max queries waiting for a solve slot (0 = 4x max-inflight)")
	flag.IntVar(&cfg.cacheSize, "cache", 128, "plan cache capacity in entries (negative disables)")
	flag.IntVar(&cfg.resultCache, "result-cache", 256, "result cache capacity in entries (negative disables)")
	flag.DurationVar(&cfg.timeout, "timeout", 60*time.Second, "default per-query timeout")
	flag.IntVar(&cfg.parallelism, "parallelism", 0, "per-query worker count for summarization and validation (0 = one per CPU); MILP solves run on one")
	flag.IntVar(&cfg.maxJobs, "max-jobs", 0, "max active async jobs (0 = max-inflight + max-queue)")
	flag.IntVar(&cfg.jobHistory, "job-history", 0, "finished jobs kept pollable (0 = 64, negative disables)")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log format for structured events: \"text\" or \"json\" (one object per line)")
	flag.DurationVar(&cfg.slowQuery, "slow-query", 0, "log queries slower than this threshold with their full span tree (0 disables)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty disables; bind it privately)")
	flag.BoolVar(&cfg.readOnly, "read-only", false, "reject table mutations (POST /v1/tables/{name}/deltas answers 405)")
	flag.StringVar(&cfg.tenants, "tenants", "", "weighted-fair admission lanes: \"name:weight[:max_inflight[:max_queue]],...\" (empty = single default lane)")
	flag.StringVar(&cfg.classes, "classes", "", "query-class budgets: \"name:time_limit_ms[:solver_nodes],...\" — a binding class budget degrades to the best-so-far package instead of failing")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "spqd:", err)
		os.Exit(1)
	}
}

// loadTables registers the -workload instances' tables and the -csv table
// in db and describes each one. A workload's tables register in name order:
// DB.Register seeds mean estimation from the registration ordinal, so a
// fixed order makes boots with the same flags load identical data.
func loadTables(db *spq.DB, cfg config) ([]string, error) {
	var tables []string
	for _, wname := range strings.Split(cfg.workloads, ",") {
		wname = strings.TrimSpace(wname)
		if wname == "" {
			continue
		}
		inst, err := workload.ByName(wname, workload.Config{N: cfg.n, Seed: cfg.seed, MeansM: cfg.meansM})
		if err != nil {
			return nil, err
		}
		for _, name := range inst.TableNames() {
			rel := inst.Tables[name]
			if err := db.Register(rel); err != nil {
				return nil, err
			}
			tables = append(tables, fmt.Sprintf("%s (%d tuples, %s)", name, rel.N(), wname))
		}
	}
	if cfg.csvPath != "" {
		f, err := os.Open(cfg.csvPath)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(cfg.csvPath), filepath.Ext(cfg.csvPath))
		rel, err := spq.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := db.Register(rel); err != nil {
			return nil, err
		}
		tables = append(tables, fmt.Sprintf("%s (%d tuples, csv)", name, rel.N()))
	}
	if len(tables) == 0 {
		return nil, errors.New("no tables loaded; pass -workload and/or -csv")
	}
	sort.Strings(tables)
	return tables, nil
}

func run(cfg config) error {
	if cfg.meansM < 1 {
		return errors.New("-means must be >= 1")
	}
	logger, err := obs.NewLogger(os.Stderr, cfg.logFormat)
	if err != nil {
		return fmt.Errorf("-log-format: %w", err)
	}
	tenants, err := engine.ParseTenants(cfg.tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	classes, err := engine.ParseClasses(cfg.classes)
	if err != nil {
		return fmt.Errorf("-classes: %w", err)
	}

	db := spq.NewDB()
	db.MeansM = cfg.meansM
	tables, err := loadTables(db, cfg)
	if err != nil {
		return err
	}

	eopts := &engine.Options{
		MaxInFlight:     cfg.maxInFlight,
		MaxQueue:        cfg.maxQueue,
		PlanCacheSize:   cfg.cacheSize,
		ResultCacheSize: cfg.resultCache,
		DefaultTimeout:  cfg.timeout,
		Parallelism:     cfg.parallelism,
		MaxJobs:         cfg.maxJobs,
		JobHistory:      cfg.jobHistory,
		ReadOnly:        cfg.readOnly,
		Logger:          logger,
		SlowQuery:       cfg.slowQuery,
		Tenants:         tenants,
		Classes:         classes,
	}
	if len(tenants) > 0 {
		parts := make([]string, len(tenants))
		for i, t := range tenants {
			parts[i] = fmt.Sprintf("%s:w%d", t.Name, t.Weight)
		}
		log.Printf("spqd: weighted-fair admission, %d tenant lanes: %s", len(tenants), strings.Join(parts, ", "))
	}

	eng := spq.NewEngine(db, eopts)

	// pprof stays off the query listener: profiling endpoints reveal memory
	// contents and must never face query traffic. The blank net/http/pprof
	// import registered its handlers on the DefaultServeMux, which only this
	// (optional, separately bound) server exposes.
	if cfg.pprofAddr != "" {
		go func() {
			log.Printf("spqd: pprof listening on %s", cfg.pprofAddr)
			if err := http.ListenAndServe(cfg.pprofAddr, nil); err != nil {
				log.Printf("spqd: pprof server: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: logRequests(eng.Handler(), logger),
		// Bound connection-level reads so trickling clients cannot pin
		// goroutines forever. WriteTimeout stays 0: responses legitimately
		// take up to the per-query -timeout, which the engine enforces.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan error, 1)
	go func() {
		log.Printf("spqd: listening on %s", cfg.addr)
		for _, t := range tables {
			log.Printf("spqd: table %s", t)
		}
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case s := <-sig:
		log.Printf("spqd: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-done
	}
}

// statusWriter records the status code and response bytes the handler
// actually wrote, so the access log can report them.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests is the access log: method, path, status, bytes, latency —
// one line per request, structured when -log-format json.
func logRequests(next http.Handler, logger *obs.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if logger != nil && logger.JSON() {
			logger.Event("http_request", map[string]any{
				"method":      r.Method,
				"path":        r.URL.Path,
				"status":      sw.status,
				"bytes":       sw.bytes,
				"duration_ms": time.Since(start).Milliseconds(),
			})
			return
		}
		log.Printf("spqd: %s %s %d %dB (%s)", r.Method, r.URL.Path, sw.status, sw.bytes, time.Since(start).Round(time.Millisecond))
	})
}
