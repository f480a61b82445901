package main

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// reply is one request's outcome as the client saw it.
type reply struct {
	status int
	source string // X-RK-Cache header
	body   []byte
	sent   time.Time
	done   time.Time // when the last byte of the body was read
	err    error     // transport failure
}

// answered reports a 200, or a 409: no α-conformant key is an answer too.
func (r reply) answered() bool {
	return r.err == nil && (r.status == http.StatusOK || r.status == http.StatusConflict)
}

// transport carries requests to one server: over HTTP to a cceserver
// process, or straight into a service handler for the traced run.
type transport interface {
	do(method, path string, body []byte) reply
}

// httpTransport keeps at most clients keep-alive connections to the server.
type httpTransport struct {
	base string
	hc   *http.Client
}

func newHTTPTransport(base string) *httpTransport {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &httpTransport{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (t *httpTransport) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var r reply
	hr, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		r.err = err
		return r
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	r.sent = time.Now()
	resp, err := t.hc.Do(hr)
	if err == nil {
		r.status, r.source = resp.StatusCode, resp.Header.Get("X-RK-Cache")
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close() // read to EOF: the connection goes back to the pool
	}
	r.done, r.err = time.Now(), err
	return r
}

func (t *httpTransport) close() { t.hc.CloseIdleConnections() }
