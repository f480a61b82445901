package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/xai-db/relativekeys/internal/backoff"
)

// Client is a typed HTTP client for a CCE service. It retries transient
// failures — 429 (shed), 503 (draining, deadline floor, log hiccup), and
// transport errors such as a reset connection — with capped, jittered
// exponential backoff, honouring the server's Retry-After hint. Permanent
// failures (400, 409, 500) surface immediately.
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// MaxRetries is how many times a transient failure is retried after the
	// first attempt. BaseDelay and MaxDelay bound the exponential backoff
	// (defaults 50ms and 2s).
	MaxRetries int
	BaseDelay  time.Duration
	MaxDelay   time.Duration

	// sleep and jitter are test seams; nil means time.Sleep and uniform
	// jitter over [d/2, d].
	sleep  func(time.Duration)
	jitter func(time.Duration) time.Duration
}

// NewClient targets a service at baseURL, using http.DefaultClient unless
// overridden, with 3 retries of transient failures.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient, MaxRetries: 3}
}

// Observe records one served inference in the remote context.
func (c *Client) Observe(values map[string]string, prediction string) error {
	var out map[string]int
	return c.post("/observe", ObserveRequest{Values: values, Prediction: prediction}, &out)
}

// Explain requests the relative key for an observed instance. alpha 0 means
// the server default.
func (c *Client) Explain(values map[string]string, prediction string, alpha float64) (*ExplainResponse, error) {
	var out ExplainResponse
	err := c.post("/explain", ExplainRequest{Values: values, Prediction: prediction, Alpha: alpha}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ExplainStale is Explain with a staleness bound, for read replicas: a
// follower whose applied state is older than maxStaleness sheds the request
// (503 + Retry-After) instead of answering from it, and the client's retry
// gives the follower time to catch up. On a primary the bound is trivially
// met.
func (c *Client) ExplainStale(values map[string]string, prediction string, alpha float64, maxStaleness time.Duration) (*ExplainResponse, error) {
	var out ExplainResponse
	req := ExplainRequest{Values: values, Prediction: prediction, Alpha: alpha, MaxStalenessMS: maxStaleness.Milliseconds()}
	if err := c.post("/explain", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the service summary.
func (c *Client) Stats() (*StatsResponse, error) {
	var out StatsResponse
	err := c.do(func() (*http.Response, error) {
		return c.HTTP.Get(c.BaseURL + "/stats")
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

func (c *Client) post(path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.do(func() (*http.Response, error) {
		return c.HTTP.Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	}, out)
}

// do runs one request with the retry policy. send must be re-issuable: each
// attempt builds a fresh request body.
func (c *Client) do(send func() (*http.Response, error), out any) error {
	for attempt := 0; ; attempt++ {
		resp, err := send()
		if err != nil {
			// Transport-level failure: connection refused, reset mid-response,
			// and friends. Retryable — the server adds an observe to its
			// context only after every stage that can refuse it, so a retry
			// cannot duplicate state it rejected.
			if attempt >= c.MaxRetries {
				return err
			}
			clientRetries.Inc()
			c.backoff(attempt, 0)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(out)
			resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
			return err
		}
		retryAfter := parseRetryAfter(resp.Header)
		herr := httpError(resp)
		resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
		if !retryableStatus(resp.StatusCode) || attempt >= c.MaxRetries {
			return herr
		}
		clientRetries.Inc()
		c.backoff(attempt, retryAfter)
	}
}

// retryableStatus: only statuses the server uses for transient conditions.
// 400/409/500 are answers, not hiccups.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// backoff sleeps for min(MaxDelay, BaseDelay·2^attempt) with jitter, never
// less than the server's Retry-After hint. The policy itself lives in
// internal/backoff so the replication follower reconnects with exactly the
// client's curve.
func (c *Client) backoff(attempt int, retryAfter time.Duration) {
	p := backoff.Policy{Base: c.BaseDelay, Max: c.MaxDelay, Jitter: c.jitter, Sleep: c.sleep}
	p.SleepFor(attempt, retryAfter)
}

// parseRetryAfter reads the integer-seconds form of Retry-After; 0 when
// absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //rkvet:ignore dropperr best-effort read of the error body; the status line already carries the failure
	return fmt.Errorf("service: %s: %s", resp.Status, bytes.TrimSpace(msg))
}
