// Package client is the typed Go client for the spqd v1 HTTP API: the
// versioned, job-oriented query surface of the stochastic package query
// daemon (cmd/spqd).
//
// The v1 API is asynchronous: POST /v1/queries accepts an sPaQL query and
// returns a Job immediately; the job then moves through the state machine
// queued → running → {succeeded, failed, cancelled} while the server's
// anytime algorithm (SummarySearch) streams per-iteration progress events —
// scenario/summary counts, validation verdicts, the best objective so far.
// A query the server's result cache already answers skips the machine: the
// Job that POST returns is born succeeded, result included. The client
// wraps that lifecycle behind four verbs:
//
//   - Submit starts a job and returns its handle.
//   - Wait long-polls until the job is terminal.
//   - Stream is Wait with a callback per progress event.
//   - Cancel aborts a queued or running job server-side.
//
// Run is Submit+Wait in one call, and a single request when the submission
// came back terminal. Overload rejections (HTTP 429) are
// retried automatically with the server-suggested backoff. This package
// also defines the v1 wire types (api.go), which the server marshals — the
// contract cannot drift between the two. Failed jobs carry stable error
// codes (client.Error) that callers may switch on.
//
// A minimal session against a running spqd:
//
//	c, err := client.New("http://localhost:8723")
//	if err != nil { ... }
//	job, err := c.Run(ctx, client.SubmitRequest{Query: spaql})
//	if err != nil { ... }
//	if job.State == client.JobSucceeded {
//		fmt.Println(job.Result.Objective, job.Result.Package)
//	}
//
// See ExampleClient for a complete runnable version, and DESIGN.md ("API
// v1") for the endpoint and error-code contract.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one spqd base URL. It is safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	retries  int
	pollWait time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a 429-rejected request is retried before
// the overload error is returned (default 3; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithPollInterval sets the long-poll wait the client asks the server for
// while waiting on a job (default 2s; the server caps it at 30s).
func WithPollInterval(d time.Duration) Option { return func(c *Client) { c.pollWait = d } }

// New creates a client for the spqd at baseURL (e.g. "http://host:8723").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)", baseURL)
	}
	c := &Client{
		base:     strings.TrimRight(u.String(), "/"),
		hc:       &http.Client{},
		retries:  3,
		pollWait: 2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// do runs one JSON request/response exchange. HTTP 429 responses are
// retried up to c.retries times, honoring the server's Retry-After;
// anything else non-2xx decodes the error envelope into *Error.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, in, out any) error {
	return c.doHeaders(ctx, method, path, query, nil, in, out)
}

// doHeaders is do with extra request headers (the trace-propagation hook).
func (c *Client) doHeaders(ctx context.Context, method, path string, query url.Values, hdr http.Header, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode/100 == 2 {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("client: decode response: %w", err)
			}
			return nil
		}
		apiErr := decodeError(resp, data)
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			if err := sleep(ctx, retryDelay(resp, apiErr, attempt)); err != nil {
				return apiErr // context ended while backing off: surface the 429
			}
			continue
		}
		return apiErr
	}
}

// decodeError turns a non-2xx response into *Error, synthesizing one when
// the body is not the envelope (e.g. a proxy in the way).
func decodeError(resp *http.Response, data []byte) *Error {
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.HTTPStatus = resp.StatusCode
		return env.Error
	}
	msg := strings.TrimSpace(string(data))
	if msg == "" {
		msg = resp.Status
	}
	code := CodeInternal
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		code = CodeOverloaded
	case http.StatusNotFound:
		code = CodeNotFound
	case http.StatusBadRequest:
		code = CodeBadRequest
	}
	return &Error{Code: code, Message: msg, HTTPStatus: resp.StatusCode}
}

// retryDelay picks the backoff before retrying a 429: the Retry-After
// header, the envelope's retry_after_ms, or an attempt-scaled default.
func retryDelay(resp *http.Response, apiErr *Error, attempt int) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	if apiErr.RetryAfterMS > 0 {
		return time.Duration(apiErr.RetryAfterMS) * time.Millisecond
	}
	return time.Duration(attempt+1) * 250 * time.Millisecond
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit starts one asynchronous query evaluation and returns its Job:
// queued, or already succeeded when the server's result cache answered it. Overload rejections are retried per WithRetries; other submission
// failures (parse errors, unknown methods) return *Error with a stable
// code.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*Job, error) {
	var hdr http.Header
	if req.TraceParent != "" {
		hdr = http.Header{TraceHeader: []string{req.TraceParent}}
	}
	var job Job
	if err := c.doHeaders(ctx, http.MethodPost, "/v1/queries", nil, hdr, req, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// SubmitBatch submits several queries in one round trip. Each item
// resolves to a Job or an inline Error; one rejected query does not abort
// the others.
func (c *Client) SubmitBatch(ctx context.Context, reqs []SubmitRequest) ([]BatchItem, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/queries:batch", nil, BatchRequest{Queries: reqs}, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Get fetches a job's current state without waiting.
func (c *Client) Get(ctx context.Context, id string) (*Job, error) {
	return c.poll(ctx, id, 0, 0)
}

// List fetches every job the server tracks (active plus bounded history).
func (c *Client) List(ctx context.Context) ([]*Job, error) {
	var out ListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/queries", nil, nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Trace fetches a job's span tree (GET /v1/queries/{id}/trace). It works on
// running jobs too: unfinished spans report a zero duration.
func (c *Client) Trace(ctx context.Context, id string) (*TraceSpan, error) {
	var tr TraceSpan
	if err := c.do(ctx, http.MethodGet, "/v1/queries/"+url.PathEscape(id)+"/trace", nil, nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Cancel requests cancellation of a queued or running job and returns its
// (possibly already terminal) state. Cancelling a terminal job is a no-op.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodDelete, "/v1/queries/"+url.PathEscape(id), nil, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// ApplyDelta applies a batch mutation to a registered table
// (POST /v1/tables/{name}/deltas) and returns the change footprint. A
// read-only server rejects it with CodeMethodNotAllowed.
func (c *Client) ApplyDelta(ctx context.Context, table string, req *DeltaRequest) (*DeltaResponse, error) {
	var out DeltaResponse
	if err := c.do(ctx, http.MethodPost, "/v1/tables/"+url.PathEscape(table)+"/deltas", nil, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// poll is one GET with the long-poll and incremental-events parameters.
func (c *Client) poll(ctx context.Context, id string, since int, wait time.Duration) (*Job, error) {
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.Itoa(since))
	}
	if wait > 0 {
		q.Set("wait_ms", strconv.FormatInt(wait.Milliseconds(), 10))
	}
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/queries/"+url.PathEscape(id), q, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Stream long-polls the job, invoking fn once per progress event in order,
// until the job reaches a terminal state; it returns the terminal Job. A
// nil fn just waits. Events already emitted before the call are replayed
// from the server's bounded history, so a fast solve still delivers its
// intermediate progress.
func (c *Client) Stream(ctx context.Context, id string, fn func(Progress)) (*Job, error) {
	since := 0
	for {
		job, err := c.poll(ctx, id, since, c.pollWait)
		if err != nil {
			return nil, err
		}
		if fn != nil {
			for _, ev := range job.Events {
				fn(ev)
			}
		}
		if job.State.Terminal() {
			return job, nil
		}
		if job.Seq > since {
			since = job.Seq
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// Wait blocks until the job is terminal and returns it.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	return c.Stream(ctx, id, nil)
}

// Run is Submit followed by Wait: the synchronous convenience call. The
// returned Job is terminal; inspect Job.State and Job.Result / Job.Error.
// When the server answered the submission from its result cache, the Job
// Submit returns is already terminal and Run returns it without polling:
// one round trip.
func (c *Client) Run(ctx context.Context, req SubmitRequest) (*Job, error) {
	job, err := c.Submit(ctx, req)
	if err != nil || job.State.Terminal() {
		return job, err
	}
	return c.Wait(ctx, job.ID)
}

// Err converts a terminal job into an error: nil for success, the job's
// inline *Error for failed or cancelled jobs, and a descriptive error for
// non-terminal states.
func (j *Job) Err() error {
	switch {
	case j == nil:
		return errors.New("client: nil job")
	case !j.State.Terminal():
		return fmt.Errorf("client: job %s still %s", j.ID, j.State)
	case j.Error != nil:
		return j.Error
	case j.State == JobSucceeded:
		return nil
	default:
		return fmt.Errorf("client: job %s %s", j.ID, j.State)
	}
}
