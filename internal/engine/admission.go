package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the multi-tenant admission layer: a deficit-round-robin
// weighted-fair scheduler that replaces the engine's former global FIFO
// semaphore. Tenancy is purely an admission-scheduling concern — the tenant
// label never reaches the solver, the result, or any cache key, so a query's
// package is bit-identical whatever tenant submitted it.

// DefaultTenant is the tenant requests run under when they carry no tenant
// label, and the tenant unknown labels fold into (bounding label
// cardinality: a client cannot mint scheduler or metric state by inventing
// tenant names).
const DefaultTenant = "default"

// ErrTenantQuota reports admission rejection because the request's tenant
// hit its own queue-depth quota while the engine still had global capacity.
// It maps to HTTP 429 with the stable code "tenant_quota", distinct from
// ErrOverloaded's "overloaded".
var ErrTenantQuota = errors.New("engine: tenant queue quota exceeded")

// TenantConfig declares one tenant's admission share.
type TenantConfig struct {
	// Name identifies the tenant (the X-Spq-Tenant header value).
	Name string
	// Weight is the tenant's relative share of solve slots under contention
	// (deficit-round-robin credit per round). Minimum 1; a tenant with
	// weight w is admitted w times per round while backlogged, so two
	// backlogged tenants with weights 3:1 converge to a 3:1 admission ratio.
	Weight int
	// MaxInFlight caps the tenant's concurrently running queries
	// (0 = no per-tenant cap; the global capacity still applies). The cap
	// is a ceiling, not a reservation — idle share flows to other tenants.
	MaxInFlight int
	// MaxQueue caps the tenant's waiting queries (0 = no per-tenant cap;
	// the global queue bound still applies). Beyond it the request is
	// rejected with ErrTenantQuota.
	MaxQueue int
}

// ParseTenants parses the spqd -tenants flag format: a comma-separated list
// of name:weight[:max_inflight[:max_queue]] entries, e.g.
// "acme:3,free:1:2:8". Weights must be >= 1; caps must be >= 0.
func ParseTenants(s string) ([]TenantConfig, error) {
	var out []TenantConfig
	seen := make(map[string]bool)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("tenant %q: want name:weight[:max_inflight[:max_queue]]", ent)
		}
		tc := TenantConfig{Name: strings.TrimSpace(parts[0])}
		if tc.Name == "" {
			return nil, fmt.Errorf("tenant %q: empty name", ent)
		}
		if seen[tc.Name] {
			return nil, fmt.Errorf("tenant %q: duplicate name", tc.Name)
		}
		seen[tc.Name] = true
		var err error
		if tc.Weight, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil || tc.Weight < 1 {
			return nil, fmt.Errorf("tenant %q: weight must be an integer >= 1", ent)
		}
		if len(parts) > 2 {
			if tc.MaxInFlight, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil || tc.MaxInFlight < 0 {
				return nil, fmt.Errorf("tenant %q: max_inflight must be an integer >= 0", ent)
			}
		}
		if len(parts) > 3 {
			if tc.MaxQueue, err = strconv.Atoi(strings.TrimSpace(parts[3])); err != nil || tc.MaxQueue < 0 {
				return nil, fmt.Errorf("tenant %q: max_queue must be an integer >= 0", ent)
			}
		}
		out = append(out, tc)
	}
	return out, nil
}

// waiter is one queued admission request.
type waiter struct {
	ch       chan struct{} // closed on admission
	admitted bool
}

// tenantState is one tenant's lane in the scheduler.
type tenantState struct {
	cfg      TenantConfig
	deficit  int  // DRR credit; reset when the lane idles
	credited bool // quantum granted for the current service turn
	inflight int
	queue    []*waiter // FIFO within the tenant
	// The lane's ledger, the one source of /stats tenants, the rejected and
	// degraded totals and the spq_tenant_*_total families.
	admitted int64 // dispatched to a slot and kept (a lost race is not)
	queued   int64 // entered the queue
	rejected int64 // refused: overloaded, tenant_quota or MaxJobs full
	degraded int64 // answered with the best-so-far package
}

// fairScheduler is a deficit-round-robin weighted-fair admission scheduler.
//
// Invariants (argued in DESIGN.md "Multi-tenant admission"):
//   - Work conservation: whenever a solve slot is free and any admissible
//     waiter exists, dispatch admits one — idle share always flows to
//     backlogged tenants.
//   - Share bounds: while k tenants stay backlogged and uncapped, tenant i
//     receives weight_i / Σ weight_j of admissions per round, because each
//     full cursor round credits every backlogged lane its weight and drains
//     exactly that much deficit.
//   - Starvation freedom: weights are >= 1, so every backlogged lane is
//     credited at least one admission per round it is visited; rounds
//     complete because each admission consumes a slot or the round ends.
type fairScheduler struct {
	mu       sync.Mutex
	capacity int // concurrent admissions (engine MaxInFlight)
	maxQueue int // global waiting bound (engine MaxQueue)
	inflight int
	waiting  int
	tenants  map[string]*tenantState
	ring     []*tenantState // round-robin order: config order, default lane included
	cursor   int
}

// newFairScheduler builds a scheduler with one lane per configured tenant
// plus the default lane (added if the config does not name it).
func newFairScheduler(capacity, maxQueue int, cfgs []TenantConfig) *fairScheduler {
	s := &fairScheduler{
		capacity: capacity,
		maxQueue: maxQueue,
		tenants:  make(map[string]*tenantState),
	}
	for _, tc := range cfgs {
		if tc.Weight < 1 {
			tc.Weight = 1
		}
		if tc.Name == "" || s.tenants[tc.Name] != nil {
			continue
		}
		ts := &tenantState{cfg: tc}
		s.tenants[tc.Name] = ts
		s.ring = append(s.ring, ts)
	}
	if s.tenants[DefaultTenant] == nil {
		ts := &tenantState{cfg: TenantConfig{Name: DefaultTenant, Weight: 1}}
		s.tenants[DefaultTenant] = ts
		s.ring = append(s.ring, ts)
	}
	return s
}

// lane resolves a tenant label to its scheduler lane, folding unknown
// labels (and "") into the default tenant.
func (s *fairScheduler) lane(tenant string) *tenantState {
	if ts, ok := s.tenants[tenant]; ok {
		return ts
	}
	return s.tenants[DefaultTenant]
}

// Acquire blocks until the request is admitted, the context expires, or the
// request is rejected (ErrOverloaded when global capacity+queue is
// exhausted, ErrTenantQuota when the tenant's own queue quota is). On nil
// return the caller holds one slot and must call Release with the same
// tenant label.
func (s *fairScheduler) Acquire(ctx context.Context, tenant string) error {
	s.mu.Lock()
	ts := s.lane(tenant)
	if s.inflight+s.waiting >= s.capacity+s.maxQueue {
		ts.rejected++
		s.mu.Unlock()
		return ErrOverloaded
	}
	if ts.cfg.MaxQueue > 0 && len(ts.queue) >= ts.cfg.MaxQueue {
		ts.rejected++
		s.mu.Unlock()
		return ErrTenantQuota
	}
	w := &waiter{ch: make(chan struct{})}
	ts.queue = append(ts.queue, w)
	s.waiting++
	ts.queued++
	s.dispatchLocked()
	admitted := w.admitted
	s.mu.Unlock()
	if admitted {
		return nil
	}
	select {
	case <-w.ch:
		// A context that ended too loses the race, whichever case the
		// select picked when both were ready.
		if ctx.Err() == nil {
			return nil
		}
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.admitted {
		// Lost the race: dispatch admitted us as the context ended.
		// Surface the context error, take back the admission and hand the
		// slot to the next waiter, as Release would.
		ts.admitted--
		s.releaseLocked(ts)
		s.dispatchLocked()
		return ctx.Err()
	}
	for i, q := range ts.queue {
		if q == w {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			break
		}
	}
	s.waiting--
	return ctx.Err()
}

// Release returns one slot and re-dispatches.
func (s *fairScheduler) Release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(s.lane(tenant))
	s.dispatchLocked()
}

func (s *fairScheduler) releaseLocked(ts *tenantState) {
	s.inflight--
	ts.inflight--
}

// refuse counts a request refused before it reached the scheduler (the
// engine's job table was full) as a rejection on its lane.
func (s *fairScheduler) refuse(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lane(tenant).rejected++
}

// degrade counts an answer degraded to the best-so-far package on the
// request's lane.
func (s *fairScheduler) degrade(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lane(tenant).degraded++
}

// admissible reports whether the lane has a waiter the caps allow to run.
func admissible(ts *tenantState) bool {
	return len(ts.queue) > 0 && (ts.cfg.MaxInFlight == 0 || ts.inflight < ts.cfg.MaxInFlight)
}

// dispatchLocked admits waiters deficit-round-robin until capacity is
// exhausted or no lane is admissible. The cursor parks on a lane for its
// whole service turn: arriving credits the lane its weight once
// (credited), and the cursor only advances when that quantum is spent or
// the lane stops being admissible — so a turn interrupted by a full
// engine resumes where it left off instead of re-crediting, and the
// weight ratio holds even when capacity is smaller than the weights.
// Lanes with empty queues lose their deficit (classic DRR: credit accrues
// only while backlogged, so an idle tenant cannot bank a burst). Lanes at
// their in-flight cap are skipped without credit for the same reason.
func (s *fairScheduler) dispatchLocked() {
	n := len(s.ring)
	if n == 0 {
		return
	}
	// idle counts cursor advances since the last admission; n+1 of them
	// means a full sweep (plus leaving a spent lane) found nothing
	// admissible.
	for idle := 0; s.inflight < s.capacity && idle <= n; {
		ts := s.ring[s.cursor]
		if len(ts.queue) == 0 {
			ts.deficit = 0
			ts.credited = false
			s.advanceLocked()
			idle++
			continue
		}
		if !admissible(ts) {
			s.advanceLocked()
			idle++
			continue
		}
		if !ts.credited {
			ts.deficit += ts.cfg.Weight
			ts.credited = true
		}
		if ts.deficit < 1 {
			// Quantum spent: the next lane's turn.
			s.advanceLocked()
			idle++
			continue
		}
		w := ts.queue[0]
		ts.queue = ts.queue[1:]
		w.admitted = true
		close(w.ch)
		s.waiting--
		s.inflight++
		ts.inflight++
		ts.admitted++
		ts.deficit--
		idle = 0
		if len(ts.queue) == 0 {
			ts.deficit = 0
			ts.credited = false
		}
	}
}

// advanceLocked moves the cursor to the next lane, opening that lane's
// service turn (its quantum will be granted afresh when it is served).
func (s *fairScheduler) advanceLocked() {
	s.cursor = (s.cursor + 1) % len(s.ring)
	s.ring[s.cursor].credited = false
}

// TenantStats is one tenant's /stats row.
type TenantStats struct {
	Weight      int   `json:"weight"`
	MaxInFlight int   `json:"max_inflight,omitempty"`
	MaxQueue    int   `json:"max_queue,omitempty"`
	InFlight    int   `json:"in_flight"`
	Waiting     int   `json:"waiting"`
	Admitted    int64 `json:"admitted"`
	Queued      int64 `json:"queued"`
	Rejected    int64 `json:"rejected"`
	Degraded    int64 `json:"degraded"`
}

// admission is one reading of the scheduler, taken under its lock: the
// in-flight and waiting totals and every lane keyed by name.
type admission struct {
	inflight, waiting int
	lanes             map[string]TenantStats
}

// read returns one consistent reading of the scheduler's ledger.
func (s *fairScheduler) read() admission {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := admission{inflight: s.inflight, waiting: s.waiting, lanes: make(map[string]TenantStats, len(s.ring))}
	for _, ts := range s.ring {
		a.lanes[ts.cfg.Name] = TenantStats{
			Weight:      ts.cfg.Weight,
			MaxInFlight: ts.cfg.MaxInFlight,
			MaxQueue:    ts.cfg.MaxQueue,
			InFlight:    ts.inflight,
			Waiting:     len(ts.queue),
			Admitted:    ts.admitted,
			Queued:      ts.queued,
			Rejected:    ts.rejected,
			Degraded:    ts.degraded,
		}
	}
	return a
}

// ClassBudget is a per-query-class evaluation budget. A class budget is
// engine-applied: when it binds, the engine degrades the result to the
// anytime best-so-far package instead of failing the query.
type ClassBudget struct {
	// TimeLimit bounds the evaluation wall clock (0 = none).
	TimeLimit time.Duration
	// SolverNodes bounds each MILP solve's branch-and-bound nodes
	// (0 = none).
	SolverNodes int
}

// ParseClasses parses the spqd -classes flag format: a comma-separated list
// of name:time_limit_ms[:solver_nodes] entries, e.g.
// "interactive:2000:50000,batch:60000".
func ParseClasses(s string) (map[string]ClassBudget, error) {
	out := make(map[string]ClassBudget)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		parts := strings.Split(ent, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("class %q: want name:time_limit_ms[:solver_nodes]", ent)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("class %q: empty name", ent)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("class %q: duplicate name", name)
		}
		ms, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("class %q: time_limit_ms must be an integer >= 0", ent)
		}
		cb := ClassBudget{TimeLimit: time.Duration(ms) * time.Millisecond}
		if len(parts) > 2 {
			if cb.SolverNodes, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil || cb.SolverNodes < 0 {
				return nil, fmt.Errorf("class %q: solver_nodes must be an integer >= 0", ent)
			}
		}
		out[name] = cb
	}
	return out, nil
}
