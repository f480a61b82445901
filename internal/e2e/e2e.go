// Package e2e holds the helpers the end-to-end gates (cmd/obssmoke,
// cmd/loadgensmoke) share: claiming a loopback port, waiting for a booted
// binary to answer, fetching a page, reading one Prometheus series, and
// dumping a server log into a failure message.
package e2e

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"time"
)

// FreeAddr grabs a loopback port from the kernel and releases it for the
// server to claim. The tiny claim race is acceptable in a smoke test.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// WaitReady polls url until it answers 200 or the budget expires.
func WaitReady(url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v", budget)
}

// Get fetches url and returns its body, failing on any status but 200.
func Get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //rkvet:ignore dropperr read-side body close; nothing to recover
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return string(b), nil
}

// SeriesValue finds one exposition line by its series name and parses its
// value. series may carry its labels (`name{k="v"}`) to pick one child; a
// bare name also matches the first line of that name that carries labels.
func SeriesValue(exposition, series string) (float64, bool) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + `(?:\{[^}]*\})? (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ReadLog returns the file at path for a failure message, or a note saying
// why it could not be read.
func ReadLog(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	return string(b)
}
