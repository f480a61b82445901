// Package e2e holds the helpers of the end-to-end gate (cmd/e2esmoke):
// booting a server binary on a free loopback port and stopping it, waiting
// for it to answer, fetching a page, building an instance from the served
// schema, reading one Prometheus series, finding families a scrape serves
// more than once, checking that a server log holds JSON records only, and
// dumping a server log into a failure message.
package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one booted server process.
type Server struct {
	Base    string // http://host:port
	logPath string // the process's combined stdout and stderr
	cmd     *exec.Cmd
	log     *os.File
}

// Boot starts bin with -addr on a free loopback port followed by args,
// logging to <dir>/<name>.log, and waits up to 10s for /schema to answer.
// On error nothing is left running; the error carries the log.
func Boot(bin, dir, name string, args ...string) (*Server, error) {
	addr, err := FreeAddr()
	if err != nil {
		return nil, err
	}
	s := &Server{Base: "http://" + addr, logPath: filepath.Join(dir, name+".log")}
	if s.log, err = os.Create(s.logPath); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		s.log.Close() //rkvet:ignore dropperr nothing was written; the start error is the one to report
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	if err := WaitReady(s.Base+"/schema", 10*time.Second); err != nil {
		s.Stop()
		return nil, fmt.Errorf("%s: %w\n%s log:\n%s", name, err, name, s.Log())
	}
	return s, nil
}

// Stop sends SIGTERM, waits for the process to exit and closes its log. A
// second call does nothing.
func (s *Server) Stop() {
	if s.cmd.ProcessState != nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) //rkvet:ignore dropperr teardown signal; Wait below reports the real outcome
	_ = s.cmd.Wait()                          //rkvet:ignore dropperr SIGTERM exit status is expected nonzero
	s.log.Close()                             //rkvet:ignore dropperr write-side close at exit; the log is diagnostic only
}

// Log returns the server's log so far, for a failure message.
func (s *Server) Log() string { return ReadLog(s.logPath) }

// LogRecords decodes the server's log, which must be one JSON object per
// line, each with ts (RFC 3339 in UTC), a lower-case level and msg. Call it
// after Stop, so the drain records are in.
func (s *Server) LogRecords() ([]map[string]any, error) {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return nil, err
	}
	var recs []map[string]any
	for i, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("log line %d is not a JSON object (%v): %s", i+1, err, line)
		}
		ts, _ := rec["ts"].(string)
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") {
			return nil, fmt.Errorf("log line %d: ts %q is not RFC 3339 in UTC: %s", i+1, ts, line)
		}
		switch rec["level"] {
		case "debug", "info", "warn", "error":
		default:
			return nil, fmt.Errorf("log line %d: level %v is not debug, info, warn or error: %s", i+1, rec["level"], line)
		}
		if _, ok := rec["msg"].(string); !ok {
			return nil, fmt.Errorf("log line %d has no msg: %s", i+1, line)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// FirstInstance builds an instance from the schema served at base: every
// attribute's first value, predicted as the first label.
func FirstInstance(base string) (map[string]string, string, error) {
	body, err := Get(base + "/schema")
	if err != nil {
		return nil, "", err
	}
	var schema struct {
		Attributes []struct {
			Name   string   `json:"name"`
			Values []string `json:"values"`
		} `json:"attributes"`
		Labels []string `json:"labels"`
	}
	if err := json.Unmarshal([]byte(body), &schema); err != nil {
		return nil, "", fmt.Errorf("schema decode: %w (%s)", err, body)
	}
	values := make(map[string]string, len(schema.Attributes))
	for _, a := range schema.Attributes {
		values[a.Name] = a.Values[0]
	}
	return values, schema.Labels[0], nil
}

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

// RepeatedFamilies lists, in exposition order, every metric family whose
// # TYPE line appears more than once. A scrape that serves each family once
// has none.
func RepeatedFamilies(exposition string) []string {
	seen := map[string]int{}
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		family, _, _ := strings.Cut(rest, " ")
		if seen[family]++; seen[family] == 2 {
			out = append(out, family)
		}
	}
	return out
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
