package engine

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spq/client"
	"spq/internal/core"
	"spq/internal/sketch"
)

// This file serves the versioned async API over the job manager:
//
//	POST   /v1/queries        — submit a query; 202 + the queued Job
//	GET    /v1/queries        — list tracked jobs (active + bounded history)
//	GET    /v1/queries/{id}   — poll one job; ?since=<seq> returns only newer
//	                            progress events, ?wait_ms=<ms> long-polls
//	                            until the job changes or turns terminal
//	DELETE /v1/queries/{id}   — cancel; returns the (possibly already
//	                            terminal) Job
//	POST   /v1/queries:batch  — submit many; per-item job-or-error results
//
// Every non-2xx response body is the structured envelope
// {"error":{"code":...,"message":...}} with the stable codes of the client
// package; 429 responses carry a Retry-After header. The wire types are
// defined in spq/client so the server and the Go client share one contract.

// maxPollWait caps the ?wait_ms long-poll duration.
const maxPollWait = 30 * time.Second

// writeError renders the v1 error envelope, setting Retry-After on 429.
func writeError(w http.ResponseWriter, apiErr *client.Error) {
	status := apiErr.HTTPStatus
	if status == 0 {
		status = http.StatusInternalServerError
	}
	if status == http.StatusTooManyRequests {
		if apiErr.RetryAfterMS <= 0 {
			apiErr.RetryAfterMS = 1000
		}
		secs := (apiErr.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, client.ErrorEnvelope{Error: apiErr})
}

// methodsHandler dispatches on the HTTP method and envelopes 405s (the
// stock ServeMux writes plain-text bodies, which the v1 contract forbids).
func methodsHandler(handlers map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(handlers))
	for m := range handlers {
		allowed = append(allowed, m)
	}
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		if h, ok := handlers[r.Method]; ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		writeError(w, &client.Error{
			Code:       client.CodeMethodNotAllowed,
			Message:    "method " + r.Method + " not allowed for " + r.URL.Path,
			HTTPStatus: http.StatusMethodNotAllowed,
		})
	}
}

// engineRequest lowers a typed v1 submission to the engine's request.
func engineRequest(sr *client.SubmitRequest) Request {
	req := Request{
		Query:       sr.Query,
		Method:      sr.Method,
		Timeout:     time.Duration(sr.TimeoutMS) * time.Millisecond,
		TraceParent: sr.TraceParent,
		Tenant:      sr.Tenant,
		Class:       sr.Class,
	}
	if o := sr.Options; o != nil {
		req.Options = &core.Options{
			Seed:                o.Seed,
			ValidationSeed:      o.ValidationSeed,
			ValidationM:         o.ValidationM,
			InitialM:            o.InitialM,
			IncrementM:          o.IncrementM,
			MaxM:                o.MaxM,
			FixedZ:              o.FixedZ,
			IncrementZ:          o.IncrementZ,
			Epsilon:             o.Epsilon,
			MaxCSAIters:         o.MaxCSAIters,
			DisableAcceleration: o.DisableAcceleration,
			TimeLimit:           time.Duration(o.TimeLimitMS) * time.Millisecond,
			SolverTime:          time.Duration(o.SolverTimeMS) * time.Millisecond,
			SolverNodes:         o.SolverNodes,
			RelGap:              o.RelGap,
		}
	}
	if s := sr.Sketch; s != nil {
		req.Sketch = &sketch.Options{
			GroupSize:     s.GroupSize,
			Shards:        s.Shards,
			MaxCandidates: s.MaxCandidates,
			Seed:          s.Seed,
		}
	}
	return req
}

// submitBody is one v1 submission as the server decodes it: the client
// contract plus two wire fields the Go client no longer has. "solve" (a
// retired relation-view sub-problem) and a "sketch.strategy" other than
// k-means each asked for something the engine no longer does; answering
// either would quietly solve a different problem, so submitOne rejects
// them instead of letting decodeBody ignore them.
type submitBody struct {
	client.SubmitRequest
	Solve  any `json:"solve"`
	Sketch *struct {
		client.SketchOptions
		Strategy string `json:"strategy"`
	} `json:"sketch"`
}

// decodeBody decodes a bounded JSON request body into v. Unknown fields are
// ignored, so a body from an older client that still carries a removed
// option decodes unchanged.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) *client.Error {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return &client.Error{
			Code:       client.CodeBadRequest,
			Message:    "bad request body: " + err.Error(),
			HTTPStatus: http.StatusBadRequest,
		}
	}
	return nil
}

// submitOne validates and submits one request, mapping failures to wire
// errors (shared by the single and batch submit paths).
func (e *Engine) submitOne(sb *submitBody) (*Job, *client.Error) {
	sr := &sb.SubmitRequest
	if sb.Solve != nil {
		return nil, &client.Error{Code: client.CodeBadRequest, Message: `"solve" sub-problem submissions are not supported`, HTTPStatus: http.StatusBadRequest}
	}
	if sk := sb.Sketch; sk != nil {
		if s := strings.ToLower(sk.Strategy); s != "" && s != "kmeans" {
			return nil, &client.Error{Code: client.CodeBadRequest, Message: "unknown sketch strategy " + strconv.Quote(sk.Strategy), HTTPStatus: http.StatusBadRequest}
		}
		sr.Sketch = &sk.SketchOptions
	}
	if sr.Query == "" {
		return nil, &client.Error{Code: client.CodeBadRequest, Message: `missing "query"`, HTTPStatus: http.StatusBadRequest}
	}
	j, err := e.Submit(engineRequest(sr))
	if err != nil {
		return nil, errToWire(err)
	}
	return j, nil
}

// applyHeaders carries a submission's X-Spq-Trace and X-Spq-Tenant headers
// into one submitted body; a tenant header wins over the body field.
func applyHeaders(r *http.Request, sb *submitBody) {
	sb.TraceParent = r.Header.Get(client.TraceHeader)
	if t := r.Header.Get(client.TenantHeader); t != "" {
		sb.Tenant = t
	}
}

func (e *Engine) handleV1Submit(w http.ResponseWriter, r *http.Request) {
	var sb submitBody
	if apiErr := decodeBody(w, r, &sb); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	applyHeaders(r, &sb)
	j, apiErr := e.submitOne(&sb)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot(0))
}

func (e *Engine) handleV1List(w http.ResponseWriter, r *http.Request) {
	jobs := e.Jobs()
	out := client.ListResponse{Jobs: make([]*client.Job, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.Snapshot(math.MaxInt)) // no event bodies in listings
	}
	writeJSON(w, http.StatusOK, out)
}

func (e *Engine) handleV1Get(w http.ResponseWriter, r *http.Request) {
	j, ok := e.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &client.Error{Code: client.CodeNotFound, Message: "unknown job " + strconv.Quote(r.PathValue("id")), HTTPStatus: http.StatusNotFound})
		return
	}
	q := r.URL.Query()
	since := 0
	if s := q.Get("since"); s != "" {
		var err error
		if since, err = strconv.Atoi(s); err != nil {
			writeError(w, &client.Error{Code: client.CodeBadRequest, Message: "bad since parameter: " + err.Error(), HTTPStatus: http.StatusBadRequest})
			return
		}
	}
	var waitMS int64
	if s := q.Get("wait_ms"); s != "" {
		var err error
		if waitMS, err = strconv.ParseInt(s, 10, 64); err != nil {
			writeError(w, &client.Error{Code: client.CodeBadRequest, Message: "bad wait_ms parameter: " + err.Error(), HTTPStatus: http.StatusBadRequest})
			return
		}
	}
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxPollWait {
		wait = maxPollWait
	}
	writeJSON(w, http.StatusOK, j.Poll(r.Context(), since, wait))
}

func (e *Engine) handleV1Trace(w http.ResponseWriter, r *http.Request) {
	j, ok := e.JobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &client.Error{Code: client.CodeNotFound, Message: "unknown job " + strconv.Quote(r.PathValue("id")), HTTPStatus: http.StatusNotFound})
		return
	}
	writeJSON(w, http.StatusOK, j.TraceData())
}

func (e *Engine) handleV1Cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := e.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, &client.Error{Code: client.CodeNotFound, Message: "unknown job " + strconv.Quote(r.PathValue("id")), HTTPStatus: http.StatusNotFound})
		return
	}
	// Give the cancellation a moment to propagate so the common case
	// returns the job already in its terminal state.
	snap := j.Poll(r.Context(), math.MaxInt, 100*time.Millisecond)
	writeJSON(w, http.StatusOK, snap)
}

func (e *Engine) handleV1Batch(w http.ResponseWriter, r *http.Request) {
	var br struct {
		Queries []submitBody `json:"queries"`
	}
	if apiErr := decodeBody(w, r, &br); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	if len(br.Queries) == 0 {
		writeError(w, &client.Error{Code: client.CodeBadRequest, Message: `missing "queries"`, HTTPStatus: http.StatusBadRequest})
		return
	}
	out := client.BatchResponse{Jobs: make([]client.BatchItem, len(br.Queries))}
	for i := range br.Queries {
		applyHeaders(r, &br.Queries[i])
		j, apiErr := e.submitOne(&br.Queries[i])
		if apiErr != nil {
			out.Jobs[i] = client.BatchItem{Error: apiErr}
			continue
		}
		out.Jobs[i] = client.BatchItem{Job: j.Snapshot(0)}
	}
	writeJSON(w, http.StatusAccepted, out)
}
