package engine

import (
	"fmt"
	"net/http"

	"spq/client"
	"spq/internal/core"
	"spq/internal/relation"
)

// This file is the engine's mutation surface: ApplyDelta funnels a batch
// relation mutation through the catalog and reconciles engine state with the
// resulting change set. Invalidation is delta-scoped and mostly lazy — the
// plan cache and result cache revalidate entries by footprint on their next
// lookup (see planFor and resultGet) — so applying a delta is O(delta), not
// O(caches). The eager part is the job history: terminal jobs pin
// relation-sized state (the solved snapshot and package vector) that a
// superseded version has no further use for, so deltas trim it down to the
// rendered wire result.

// warmHint is the warm-start state salvaged from a result-cache entry that a
// delta invalidated: enough to re-seed the same request's re-solve from the
// previous evaluation's package, summaries, and root basis. Advisory and
// node-local, like everything warm-start.
type warmHint struct {
	warm    *core.WarmStart
	table   *relation.Relation // registered base relation
	rel     *relation.Relation // the (possibly WHERE-filtered) view warm.X indexes
	version uint64             // relation version the entry was valid for
}

// maxWarmHints bounds the hint stash: hints are free speed, not correctness,
// so overflow just forgets one.
const maxWarmHints = 64

// stashWarm keeps an invalidated entry's warm-start state for the next
// identical request. Entries solved without CollectWarm carry none.
func (e *Engine) stashWarm(key string, cr *cachedResult) {
	if cr.sol == nil || cr.sol.Warm == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warmHints == nil {
		e.warmHints = map[string]*warmHint{}
	}
	if _, exists := e.warmHints[key]; !exists && len(e.warmHints) >= maxWarmHints {
		for k := range e.warmHints {
			delete(e.warmHints, k)
			break
		}
	}
	e.warmHints[key] = &warmHint{warm: cr.sol.Warm, table: cr.table, rel: cr.rel, version: cr.relVersion}
}

// takeWarm removes and returns the hint stashed under a result key, if any.
func (e *Engine) takeWarm(key string) *warmHint {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.warmHints[key]
	if h != nil {
		delete(e.warmHints, key)
	}
	return h
}

// warmStart resolves a stashed hint against a freshly prepared plan: it
// checks the hint still describes the same relation lineage, computes the
// merged change footprint since the hint's version, and translates the
// touched base tuples into the plan view's index space. Returns nil when the
// hint no longer applies (membership changed, history trimmed, views
// enumerate different tuples) — the query then solves cold.
func (e *Engine) warmStart(hint *warmHint, p *plan) *core.WarmStart {
	rel, ok := e.cat.Table(p.query.Table)
	if !ok || rel != hint.table || rel != p.table {
		return nil
	}
	cs, ok := rel.Changes(hint.version)
	if !ok || cs.MembershipChanged() {
		return nil
	}
	// cs.Tuples index the base relation's current tuple space; OrigIndex maps
	// view indices to original (pre-any-delete) indices. The two coincide
	// only while the base was never compacted by a delete.
	if bn := rel.N(); bn > 0 && rel.OrigIndex(bn-1) != bn-1 {
		return nil
	}
	nv, ov := p.silp.Rel, hint.rel
	n := nv.N()
	if ov.N() != n || len(hint.warm.X) != n {
		return nil
	}
	// The warm X indexes the old view; it transfers only when both views
	// enumerate the same base tuples in the same order.
	for i := 0; i < n; i++ {
		if nv.OrigIndex(i) != ov.OrigIndex(i) {
			return nil
		}
	}
	var touched []int
	if len(cs.Attrs) > 0 {
		// A VG replacement changes a whole stochastic column: every tuple of
		// the view is touched (the patch degenerates to a re-summarize).
		touched = make([]int, n)
		for i := range touched {
			touched[i] = i
		}
	} else if len(cs.Tuples) > 0 {
		changed := make(map[int]bool, len(cs.Tuples))
		for _, t := range cs.Tuples {
			changed[t] = true
		}
		for i := 0; i < n; i++ {
			if changed[nv.OrigIndex(i)] {
				touched = append(touched, i)
			}
		}
	}
	w := *hint.warm
	w.Touched = touched
	return &w
}

// ApplyDelta applies a batch mutation to a registered table and reconciles
// engine state: the job history drops relation-sized state of terminal jobs
// solved against the table (their rendered wire results keep serving polls),
// while the plan and result caches revalidate lazily by footprint on their
// next lookup. Validation failures (unknown table, bad column, out-of-range
// tuple) wrap ErrBadQuery for the HTTP 400 mapping.
func (e *Engine) ApplyDelta(table string, d *relation.Delta) (*relation.ChangeSet, error) {
	if e.opts.ReadOnly {
		return nil, fmt.Errorf("%w: server is read-only", ErrBadQuery)
	}
	rel, ok := e.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("%w: unknown table %q", ErrBadQuery, table)
	}
	cs, err := rel.Base().ApplyDelta(d)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	e.m.inc(statDeltasApplied)
	e.trimJobs(table)
	return cs, nil
}

// trimJobs trims the terminal jobs that solved against the mutated table.
func (e *Engine) trimJobs(table string) {
	for _, j := range e.Jobs() {
		j.trimAfterDelta(table)
	}
}

// handleV1Delta serves POST /v1/tables/{name}/deltas.
func (e *Engine) handleV1Delta(w http.ResponseWriter, r *http.Request) {
	if e.opts.ReadOnly {
		writeError(w, &client.Error{
			Code:       client.CodeMethodNotAllowed,
			Message:    "server is read-only",
			HTTPStatus: http.StatusMethodNotAllowed,
		})
		return
	}
	name := r.PathValue("name")
	if _, ok := e.cat.Table(name); !ok {
		writeError(w, &client.Error{
			Code:       client.CodeNotFound,
			Message:    fmt.Sprintf("unknown table %q", name),
			HTTPStatus: http.StatusNotFound,
		})
		return
	}
	var dr client.DeltaRequest
	if apiErr := decodeBody(w, r, &dr); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if len(dr.Set) == 0 && len(dr.Delete) == 0 && len(dr.Append) == 0 {
		writeError(w, &client.Error{
			Code:       client.CodeBadRequest,
			Message:    "empty delta: provide set, delete, or append",
			HTTPStatus: http.StatusBadRequest,
		})
		return
	}
	cs, err := e.ApplyDelta(name, &relation.Delta{Set: dr.Set, Delete: dr.Delete, Append: dr.Append})
	if err != nil {
		writeError(w, errToWire(err))
		return
	}
	writeJSON(w, http.StatusOK, client.DeltaResponse{
		Table:       name,
		FromVersion: cs.From,
		Version:     cs.To,
		Cols:        cs.Cols,
		TuplesSet:   len(cs.Tuples),
		Appended:    cs.Appended,
		Deleted:     cs.Deleted,
	})
}
