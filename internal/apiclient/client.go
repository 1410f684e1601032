// Package apiclient is the one HTTP client for the repo's JSON APIs: the
// ehdoed v1 surface, the cluster work protocol it mounts, and the worker
// peer-cache protocol. Every production binary that issues an API request
// goes through this client, so the wire behaviour — typed request/response
// encoding, uniform error-envelope decoding, bounded retry with backoff on
// transport failures, and X-Request-ID propagation — is defined exactly
// once.
//
// Retries are transport-level only, with one deliberate exception: a
// connection that failed before the server produced a response is retried
// with doubling backoff, and a 429 or 503 that carries a Retry-After
// header — the server explicitly saying "come back in N seconds" — is
// retried after the advised delay (capped, lightly jittered). Any other
// HTTP response, success or error, is authoritative and returned as-is;
// in particular a 503 without the header (a draining server) is final.
// The protocols this client serves are safe under that rule (registration
// and results uploads are idempotent-ish by design; see internal/cluster).
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Error is a decoded API error envelope ({"error": ..., "code": ...}): any
// non-2xx response surfaces as one of these, with the HTTP status, the
// machine-readable code, and the request ID the server echoed (or assigned).
// Responses whose body is not a well-formed envelope still produce an
// Error, with the raw body (truncated) as the message.
type Error struct {
	Status    int
	Code      string
	Message   string
	RequestID string
}

func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("api: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("api: %d: %s", e.Status, e.Message)
}

// ErrorCode extracts the machine-readable code from an error returned by
// this package, or "" when err is nil or not an API error.
func ErrorCode(err error) string {
	var ae *Error
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// Options tunes a Client. The zero value gets the defaults documented on
// each field.
type Options struct {
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// MaxAttempts bounds one call's attempts, including the first
	// (default 3). Only transport failures are retried; an HTTP response
	// of any status ends the attempt loop.
	MaxAttempts int
	// BaseDelay is the first retry backoff; it doubles per attempt
	// (default 50ms).
	BaseDelay time.Duration
	// MaxBody caps the decoded response body (default 64 MiB — lease
	// responses and model documents are large).
	MaxBody int64
	// RetryAfterCap bounds how long a server-advised Retry-After delay may
	// hold an attempt loop (default 30s); a pathological or hostile header
	// must not park the client for an hour.
	RetryAfterCap time.Duration
}

// Client issues typed JSON calls against one base URL. Safe for concurrent
// use.
type Client struct {
	base          string
	hc            *http.Client
	maxAttempts   int
	baseDelay     time.Duration
	maxBody       int64
	retryAfterCap time.Duration
}

// New builds a client for the given base URL (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	hc := opts.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	delay := opts.BaseDelay
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	maxBody := opts.MaxBody
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	raCap := opts.RetryAfterCap
	if raCap <= 0 {
		raCap = 30 * time.Second
	}
	return &Client{
		base:          strings.TrimRight(base, "/"),
		hc:            hc,
		maxAttempts:   attempts,
		baseDelay:     delay,
		maxBody:       maxBody,
		retryAfterCap: raCap,
	}
}

// Result is the raw outcome of one request — the escape hatch tests use to
// assert on wire-level details (status, headers, exact body bytes).
type Result struct {
	Status int
	Header http.Header
	Body   []byte
}

// url joins the base with a path. Absolute http(s) URLs pass through
// untouched, so callers holding a full peer/server URL can use one client
// helper for everything.
func (c *Client) url(path string) string {
	if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
		return path
	}
	return c.base + path
}

// Do issues one call (with the transport retry loop) and returns the raw
// result without interpreting the status. in == nil sends no body.
func (c *Client) Do(ctx context.Context, method, path string, in any) (*Result, error) {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("api: encoding %s %s request: %w", method, path, err)
		}
		payload = b
	}
	// One request ID per call: adopt the context's trace so server logs
	// correlate with the caller's, or mint a fresh client-side ID.
	reqID := obs.TraceID(ctx)
	if reqID == "" {
		reqID = obs.NewID("cli-")
	}

	delay := c.baseDelay
	var advised time.Duration // server-advised Retry-After for the next attempt
	advisedSet := false
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			wait := delay
			delay *= 2
			if advisedSet {
				// The server said when to come back; that beats our blind
				// doubling schedule (even "0 seconds" does). Jitter ≤10% so
				// a herd of clients shed together does not return in
				// lockstep.
				wait = advised + jitter(advised/10)
				advisedSet = false
			}
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, context.Cause(ctx)
			}
		}
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
		if err != nil {
			return nil, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("X-Request-ID", reqID)
		res, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			lastErr = err
			continue // transport failure: the server saw nothing definitive
		}
		out, err := io.ReadAll(io.LimitReader(res.Body, c.maxBody))
		res.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		result := &Result{Status: res.StatusCode, Header: res.Header, Body: out}
		if attempt < c.maxAttempts-1 {
			if d, ok := c.serverAdvisedRetry(result); ok {
				advised, advisedSet = d, true
				continue
			}
		}
		return result, nil
	}
	return nil, fmt.Errorf("api: %s %s failed after %d attempts: %w", method, path, c.maxAttempts, lastErr)
}

// Call issues a typed request: in (nil = no body) is marshalled, any
// non-2xx answer is decoded into *Error, and a 2xx body is decoded into
// out (out == nil discards it).
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	res, err := c.Do(ctx, method, path, in)
	if err != nil {
		return err
	}
	if res.Status < 200 || res.Status > 299 {
		return decodeError(res)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(res.Body, out); err != nil {
		return fmt.Errorf("api: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Get issues a typed GET.
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.Call(ctx, http.MethodGet, path, nil, out)
}

// Post issues a typed POST.
func (c *Client) Post(ctx context.Context, path string, in, out any) error {
	return c.Call(ctx, http.MethodPost, path, in, out)
}

// serverAdvisedRetry reports whether the response is an explicit
// back-pressure signal worth waiting out: a 429 or 503 carrying a
// Retry-After header. The header gate matters — a 503 without it (a
// draining server) is a final answer, and retrying it would just prolong
// shutdowns.
func (c *Client) serverAdvisedRetry(res *Result) (time.Duration, bool) {
	if res.Status != http.StatusTooManyRequests && res.Status != http.StatusServiceUnavailable {
		return 0, false
	}
	d, ok := parseRetryAfter(res.Header.Get("Retry-After"))
	if !ok {
		return 0, false
	}
	if d > c.retryAfterCap {
		d = c.retryAfterCap
	}
	return d, true
}

// parseRetryAfter decodes a Retry-After header value: delta-seconds or an
// HTTP-date (RFC 9110 §10.2.3). Negative or unparseable values are
// ignored. A delay longer than time.Duration can hold saturates at its
// maximum instead of wrapping around to a negative or tiny wait.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		if secs < 0 {
			return 0, false
		}
		if secs > int64(math.MaxInt64/time.Second) {
			return math.MaxInt64, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		d := time.Until(at)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// jitter draws a uniform duration in [0, max).
func jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(max)))
}

// decodeError turns a non-2xx result into *Error, tolerating bodies that
// are not the uniform envelope.
func decodeError(res *Result) error {
	e := &Error{Status: res.Status, RequestID: res.Header.Get("X-Request-ID")}
	var envelope struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(res.Body, &envelope); err == nil && envelope.Error != "" {
		e.Message, e.Code = envelope.Error, envelope.Code
		return e
	}
	msg := strings.TrimSpace(string(res.Body))
	if len(msg) > 512 {
		msg = msg[:512]
	}
	e.Message = msg
	return e
}
