package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zng/internal/obs"
)

// daemon is one zngd child process and the keep-alive client that
// drives it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{} // closed once the process has exited
	err    error         // its exit status, set before done closes
}

// startDaemon launches zngd on store with default flags plus the
// address, cache and tracing flags, and returns once it answers
// /healthz. Untraced daemons run with tracing off; traced ones record
// every request.
func startDaemon(bin, dir, store string, traced bool) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache", store}
	if traced {
		args = append(args, "-trace-sample", "1")
	} else {
		args = append(args, "-trace-buf", "0")
	}
	logf, err := os.OpenFile(filepath.Join(dir, "zngd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting zngd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	d.client = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		},
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("zngd exited during start-up: %v", d.err)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("zngd did not publish its address")
		}
		time.Sleep(500 * time.Microsecond)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("zngd not healthy: %v", err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// peakRSSMB reads the child's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// stop sends SIGTERM, lets zngd drain, and waits for it to exit,
// killing it if it overstays. Dying of the SIGTERM itself is a clean
// stop: a daemon stopped right after it first answers may not have
// installed its signal handler yet. Stopping an exited daemon only
// reports how it exited.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("zngd did not drain within 30s; killed")
	}
	var exit *exec.ExitError
	if errors.As(d.err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return d.err
}

// do sends one request and returns the status and body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var buf bytes.Buffer
	code, err := d.doInto(&buf, method, path, body)
	return code, buf.Bytes(), err
}

// doInto sends one request and reads the reply body into buf, which
// it resets first; the closed loop reuses one buffer per client.
func (d *daemon) doInto(buf *bytes.Buffer, method, path string, body []byte) (int, error) {
	buf.Reset()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// getJSON fetches path and decodes a 200 reply into v.
func (d *daemon) getJSON(path string, v any) error {
	code, b, err := d.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// counters fetches the flat /metrics counters.
func (d *daemon) counters() (counters, error) {
	code, b, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	return parseCounters(b)
}

// spans collects the span records of up to maxTraces of the most
// recent traces the daemon's flight recorder holds.
func (d *daemon) spans(maxTraces int) ([]obs.Record, error) {
	var list struct {
		Traces []obs.Summary `json:"traces"`
	}
	if err := d.getJSON("/v1/trace", &list); err != nil {
		return nil, err
	}
	var out []obs.Record
	for i, s := range list.Traces {
		if i == maxTraces {
			break
		}
		var tr struct {
			Spans []obs.Record `json:"spans"`
		}
		if err := d.getJSON("/v1/trace/"+s.Trace.String(), &tr); err != nil {
			return nil, err
		}
		out = append(out, tr.Spans...)
	}
	return out, nil
}

// outcome classifies one operation for the attempted/failed ledger.
type outcome int

const (
	opOK outcome = iota
	opRejected
	opError
	opMismatch
)

// tally counts operations attempted and failed. A rejection (429), any
// other non-200 reply, a transport error and a result mismatch all
// count as failed.
type tally struct {
	Attempted, Rejected, Errors, Mismatches int
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case opRejected:
		t.Rejected++
	case opError:
		t.Errors++
	case opMismatch:
		t.Mismatches++
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Rejected += o.Rejected
	t.Errors += o.Errors
	t.Mismatches += o.Mismatches
}

func (t tally) failed() int { return t.Rejected + t.Errors + t.Mismatches }

// runCell is the POST /v1/run body for one grid cell.
type runCell struct {
	Platform string  `json:"platform"`
	Mix      string  `json:"mix"`
	Scale    float64 `json:"scale"`
}

func (c runCell) String() string {
	return fmt.Sprintf("%s/%s@%g", c.Platform, c.Mix, c.Scale)
}

// resultOf extracts the compacted "result" document of a /v1/run
// reply.
func resultOf(body []byte) ([]byte, error) {
	var reply struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("decoding /v1/run reply: %w", err)
	}
	if len(reply.Result) == 0 {
		return nil, errors.New("/v1/run reply carries no result")
	}
	return compact(reply.Result)
}

func compact(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
