package apiclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCallRoundTrip: a typed POST marshals the request, decodes the 2xx
// body, and stamps Content-Type and one X-Request-ID.
func TestCallRoundTrip(t *testing.T) {
	type echo struct {
		Name string `json:"name"`
	}
	var gotCT, gotID string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCT = r.Header.Get("Content-Type")
		gotID = r.Header.Get("X-Request-ID")
		w.Write([]byte(`{"name":"pong"}`))
	}))
	defer ts.Close()

	var out echo
	if err := New(ts.URL, Options{}).Post(context.Background(), "/echo", echo{Name: "ping"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "pong" {
		t.Fatalf("decoded %+v", out)
	}
	if gotCT != "application/json" {
		t.Fatalf("Content-Type %q", gotCT)
	}
	if !strings.HasPrefix(gotID, "cli-") {
		t.Fatalf("minted request ID %q, want cli- prefix", gotID)
	}
}

// TestRequestIDFromContext: a call made under an ambient trace reuses that
// ID on the wire instead of minting one, so server logs correlate.
func TestRequestIDFromContext(t *testing.T) {
	var gotID string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotID = r.Header.Get("X-Request-ID")
	}))
	defer ts.Close()

	ctx := obs.WithTraceID(context.Background(), "req-fixed")
	if err := New(ts.URL, Options{}).Get(ctx, "/", nil); err != nil {
		t.Fatal(err)
	}
	if gotID != "req-fixed" {
		t.Fatalf("request ID %q, want the ambient trace ID", gotID)
	}
}

// TestErrorEnvelopeDecoded: any non-2xx answer surfaces as *Error carrying
// the status, the machine-readable code, and the echoed request ID.
func TestErrorEnvelopeDecoded(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":"fleet is empty","code":"no_workers"}`))
	}))
	defer ts.Close()

	err := New(ts.URL, Options{}).Post(context.Background(), "/build", struct{}{}, nil)
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("err %T %v, want *Error", err, err)
	}
	if ae.Status != http.StatusConflict || ae.Code != "no_workers" || ae.Message != "fleet is empty" {
		t.Fatalf("decoded envelope %+v", ae)
	}
	if ae.RequestID == "" {
		t.Fatal("echoed request ID lost")
	}
	if ErrorCode(err) != "no_workers" {
		t.Fatalf("ErrorCode %q", ErrorCode(err))
	}
	if ErrorCode(nil) != "" || ErrorCode(errors.New("x")) != "" {
		t.Fatal("ErrorCode must be empty for nil / foreign errors")
	}
}

// TestNonEnvelopeErrorBody: a non-JSON error body still produces *Error,
// with the raw text as the message.
func TestNonEnvelopeErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gateway exploded", http.StatusBadGateway)
	}))
	defer ts.Close()

	err := New(ts.URL, Options{}).Get(context.Background(), "/", nil)
	var ae *Error
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway || ae.Message != "gateway exploded" {
		t.Fatalf("err %v", err)
	}
}

// TestTransportFailureRetried: a connection the server resets before
// answering is retried with backoff; the eventual HTTP response wins. An
// HTTP error response, by contrast, is authoritative — never retried.
func TestTransportFailureRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Kill the connection before any response bytes.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder not hijackable")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond})
	if err := c.Get(context.Background(), "/", nil); err != nil {
		t.Fatalf("retry after transport failure: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d calls, want 2", n)
	}

	calls.Store(0)
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	if err := New(bad.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond}).Get(context.Background(), "/", nil); ErrorCode(err) == "" {
		var ae *Error
		if !errors.As(err, &ae) {
			t.Fatalf("5xx surfaced as %v", err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("HTTP error retried: %d calls, want 1", n)
	}
}

// TestRetriesExhausted: when every attempt dies on the wire the call fails
// with the attempt count and the last transport error.
func TestRetriesExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close()
	}))
	defer ts.Close()

	err := New(ts.URL, Options{MaxAttempts: 2, BaseDelay: time.Millisecond}).Get(context.Background(), "/", nil)
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// TestAbsoluteURLPassthrough: a caller holding a full URL can use any
// client regardless of its base.
func TestAbsoluteURLPassthrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	if err := New("http://unreachable.invalid", Options{}).Get(context.Background(), ts.URL+"/x", nil); err != nil {
		t.Fatalf("absolute URL must bypass the base: %v", err)
	}
}

// TestRetryAfterHonored: a 429 carrying Retry-After is retried after the
// advised delay — which overrides the client's own doubling schedule. The
// base delay here is a minute; only the server's "0 seconds" advice lets
// the test finish fast.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded","code":"overloaded"}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Minute})
	start := time.Now()
	if err := c.Get(context.Background(), "/", nil); err != nil {
		t.Fatalf("advised retry should recover: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d calls, want 2", n)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("advised 0s retry took %s; the doubling schedule leaked through", d)
	}
}

// TestRetryAfterExhausted: when every attempt is shed, the final 429 is
// returned as the authoritative answer (typed *Error), not wrapped as a
// transport failure.
func TestRetryAfterExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"still overloaded","code":"overloaded"}`))
	}))
	defer ts.Close()

	err := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond}).Get(context.Background(), "/", nil)
	var ae *Error
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != "overloaded" {
		t.Fatalf("exhausted advised retries: %v", err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("%d calls, want all 3 attempts", n)
	}
}

// TestServiceUnavailableWithoutHeaderIsFinal: a bare 503 (a draining
// server) is an authoritative answer — exactly one call, no retry.
func TestServiceUnavailableWithoutHeaderIsFinal(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"draining","code":"shutting_down"}`))
	}))
	defer ts.Close()

	err := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Millisecond}).Get(context.Background(), "/", nil)
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != "shutting_down" {
		t.Fatalf("bare 503: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("bare 503 retried: %d calls, want 1", n)
	}
}

// TestRetryAfterCapped: a pathological Retry-After (an hour) is clamped to
// the configured cap, so the call still completes promptly.
func TestRetryAfterCapped(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"queue full","code":"queue_full"}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxAttempts: 2, BaseDelay: time.Millisecond, RetryAfterCap: 10 * time.Millisecond})
	start := time.Now()
	if err := c.Get(context.Background(), "/", nil); err != nil {
		t.Fatalf("capped advised retry: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("hour-long Retry-After not capped: waited %s", d)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d calls, want 2", n)
	}
}

// TestParseRetryAfter covers both header encodings and the garbage cases.
func TestParseRetryAfter(t *testing.T) {
	if d, ok := parseRetryAfter("7"); !ok || d != 7*time.Second {
		t.Fatalf("delta-seconds: %s %v", d, ok)
	}
	if _, ok := parseRetryAfter("-3"); ok {
		t.Fatal("negative delta accepted")
	}
	if _, ok := parseRetryAfter(""); ok {
		t.Fatal("empty header accepted")
	}
	if _, ok := parseRetryAfter("soon"); ok {
		t.Fatal("garbage accepted")
	}
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(future); !ok || d < 80*time.Second || d > 91*time.Second {
		t.Fatalf("HTTP-date: %s %v", d, ok)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(past); !ok || d != 0 {
		t.Fatalf("past HTTP-date should clamp to 0: %s %v", d, ok)
	}
}

// TestServerAdvisedRetryClamps: every delta-seconds value the server can
// send maps to a wait in [0, cap]. Values past what time.Duration holds
// must reach the cap, not wrap around in the conversion: unclamped,
// 10000000000 s is a negative wait (retry at once) and 18446744074 s is
// 290 ms.
func TestServerAdvisedRetryClamps(t *testing.T) {
	const cp = 30 * time.Second
	c := New("http://127.0.0.1:1", Options{RetryAfterCap: cp})
	for _, tc := range []struct {
		status int
		header string
		want   time.Duration
		ok     bool
	}{
		{http.StatusTooManyRequests, "7", 7 * time.Second, true},
		{http.StatusServiceUnavailable, "0", 0, true},
		{http.StatusTooManyRequests, "3600", cp, true},
		{http.StatusTooManyRequests, "9223372036", cp, true},
		{http.StatusTooManyRequests, "9223372037", cp, true},
		{http.StatusTooManyRequests, "10000000000", cp, true},
		{http.StatusTooManyRequests, "18446744074", cp, true},
		{http.StatusServiceUnavailable, "99999999999999999999999", cp, true},
		{http.StatusTooManyRequests, "-1", 0, false},
		{http.StatusTooManyRequests, "-99999999999999999999999", 0, false},
		{http.StatusTooManyRequests, "soon", 0, false},
		{http.StatusTooManyRequests, "", 0, false},
		{http.StatusInternalServerError, "7", 0, false},
	} {
		res := &Result{Status: tc.status, Header: http.Header{}}
		if tc.header != "" {
			res.Header.Set("Retry-After", tc.header)
		}
		d, ok := c.serverAdvisedRetry(res)
		if d != tc.want || ok != tc.ok {
			t.Errorf("%d Retry-After %q: (%v, %v), want (%v, %v)", tc.status, tc.header, d, ok, tc.want, tc.ok)
		}
	}
}

// FuzzParseRetryAfter feeds arbitrary header values to the Retry-After
// parser: none may panic it, and an accepted value is never a negative
// wait. The seed corpus in testdata/fuzz/FuzzParseRetryAfter holds both
// encodings and the overflow values.
func FuzzParseRetryAfter(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		if d, ok := parseRetryAfter(v); ok && d < 0 {
			t.Fatalf("%q: accepted a negative wait %v", v, d)
		}
	})
}

// TestContextCancelStopsBackoff: cancellation during the retry sleep
// returns promptly with the context's cause, not after the full backoff.
func TestContextCancelStopsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, _, _ := w.(http.Hijacker).Hijack()
		conn.Close()
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, Options{MaxAttempts: 3, BaseDelay: time.Minute})
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	err := c.Get(ctx, "/", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation waited out the backoff")
	}
}
