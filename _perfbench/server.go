package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	bootTimeout = 2 * time.Minute  // longest a boot may take before the run fails
	stopGrace   = 30 * time.Second // how long a draining server gets before it is killed
)

// serverProc is one running cceserver child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once the process is reaped
	once   sync.Once     // stop or kill, whichever comes first
}

// running tracks every started server so an interrupted run still stops them.
var running = struct {
	sync.Mutex
	procs map[*serverProc]bool
}{procs: map[*serverProc]bool{}}

// bootServer execs cceserver over stateDir with every flag but the address,
// the dataset and the state directory at its default, and waits until
// /healthz answers 200 with all rows recovered. It returns the time from exec
// to that answer: the set-up time.
func bootServer(bin, stateDir string, rows int) (*serverProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-dataset", "adult", "-state", stateDir, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The kernel kills the server should this process die without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start cceserver: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a server this process stops carries nothing
		close(p.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.After(bootTimeout)
	for {
		if n, ok := healthzRows(hc, p.base); ok && n == rows {
			return p, time.Since(start), nil
		}
		select {
		case <-p.exited:
			p.kill()
			return nil, 0, fmt.Errorf("cceserver exited during boot")
		case <-deadline:
			p.kill()
			return nil, 0, fmt.Errorf("cceserver not ready within %v", bootTimeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// healthzRows reads the live context size from /healthz; ok stays false
// until the server answers 200.
func healthzRows(hc *http.Client, base string) (int, bool) {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var h struct {
		ContextSize int `json:"context_size"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return 0, false
	}
	return h.ContextSize, true
}

// freeAddr returns a loopback address whose port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// peakRSSMiB reads the server's VmHWM, its peak resident set, from /proc.
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// stop asks the server to drain (SIGTERM, which snapshots its final state)
// and waits for it to exit; one still running after the grace period is
// killed.
func (p *serverProc) stop() {
	p.once.Do(func() {
		// Signalling a process that already exited fails harmlessly.
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(stopGrace):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
		untrack(p)
	})
}

// kill stops the server at once and waits until it is reaped.
func (p *serverProc) kill() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // fails only if the process already exited
		<-p.exited
		untrack(p)
	})
}

func untrack(p *serverProc) {
	running.Lock()
	delete(running.procs, p)
	running.Unlock()
}

// killAll kills every server still running and waits until each is reaped.
func killAll() {
	running.Lock()
	procs := make([]*serverProc, 0, len(running.procs))
	for p := range running.procs {
		procs = append(procs, p)
	}
	running.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Kill() // fails only if the process already exited
		<-p.exited
	}
}

// freshState makes a new state directory holding a copy of the snapshot, so
// every boot recovers exactly the same state.
func freshState(work, snap, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	src, err := os.Open(snap)
	if err != nil {
		return "", err
	}
	defer src.Close()
	dst, err := os.Create(filepath.Join(dir, "context.snap"))
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close() // the copy error is the one to report
		return "", err
	}
	return dir, dst.Close()
}
