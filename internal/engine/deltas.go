package engine

import (
	"fmt"
	"net/http"

	"spq/client"
	"spq/internal/core"
	"spq/internal/relation"
)

// This file is the engine's mutation surface: ApplyDelta funnels a batch
// relation mutation through the catalog, and a delta touches only the
// relation. Invalidation is delta-scoped and lazy — the plan cache and result
// cache revalidate entries by footprint on their next lookup (see planFor and
// resultGet) — so applying a delta is O(delta), not O(caches). A finished job
// keeps only its rendered wire answer, so the job history pins no relation
// version a delta could supersede.

// warmStart resolves the entry a delta invalidated for this request (see
// lookup) against a freshly prepared plan: it checks the entry still
// describes the same relation lineage, computes the merged change footprint
// since the entry's version, and translates the touched base tuples into the
// plan view's index space. Returns nil when there is no such entry, its
// answer carries no warm state (no CSA solve produced it), or that state no
// longer applies (membership changed, history trimmed, views enumerate
// different tuples) — the query then solves cold.
func (e *Engine) warmStart(cr *cachedResult, p *plan) *core.WarmStart {
	if cr == nil || cr.sol.Warm == nil {
		return nil
	}
	rel, ok := e.cat.Table(p.query.Table)
	if !ok || rel != cr.table || rel != p.table {
		return nil
	}
	cs, ok := rel.Changes(cr.relVersion)
	if !ok || cs.MembershipChanged() {
		return nil
	}
	// cs.Tuples index the base relation's current tuple space; OrigIndex maps
	// view indices to original (pre-any-delete) indices. The two coincide
	// only while the base was never compacted by a delete.
	if bn := rel.N(); bn > 0 && rel.OrigIndex(bn-1) != bn-1 {
		return nil
	}
	nv, ov := p.silp.Rel, cr.rel
	n := nv.N()
	if ov.N() != n || len(cr.sol.Warm.X) != n {
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
	w := *cr.sol.Warm
	w.Touched = touched
	return &w
}

// ApplyDelta applies a batch mutation to a registered table. It touches
// only the relation: the plan and result caches revalidate lazily by
// footprint on their next lookup, and finished jobs hold no relation state.
// Validation failures (unknown table, bad column, out-of-range tuple) wrap
// ErrBadQuery for the HTTP 400 mapping.
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
	return cs, nil
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
