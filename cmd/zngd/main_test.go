package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGracefulDrainUnderLoad is the shutdown satellite: a daemon
// carrying in-flight synchronous simulations that receives SIGTERM
// must answer every admitted request with 200 and exit cleanly
// within the -drain budget — no dropped work, no hung process.
func TestGracefulDrainUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real zngd process")
	}
	bin := filepath.Join(t.TempDir(), "zngd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building zngd: %v\n%s", err, out)
	}

	addrFile := filepath.Join(t.TempDir(), "zngd.addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-cache", t.TempDir(),
		"-workers", "2",
		"-drain", "30s",
	)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("daemon never published its address")
	}

	// Distinct cells, so every request simulates (no coalescing, no
	// store hit) and the drain has real in-flight work to wait out.
	const inflight = 3
	statuses := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		body := fmt.Sprintf(`{"platform":"GDDR5","mix":"solo-bfs1","scale":%g}`, 0.04+0.01*float64(i))
		go func() {
			resp, err := http.Post("http://"+addr+"/v1/run", "application/json", bytes.NewBufferString(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}

	// Signal only once every request is admitted — in flight as a
	// queued or running job, or already simulated — so none race the
	// listener closing.
	admitted := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var m struct {
			Sims        int `json:"sims"`
			JobsQueued  int `json:"jobs_queued"`
			JobsRunning int `json:"jobs_running"`
		}
		if resp, err := http.Get("http://" + addr + "/metrics"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
			if err == nil && m.Sims+m.JobsQueued+m.JobsRunning >= inflight {
				admitted = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !admitted {
		t.Fatal("requests never showed up as jobs")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Every in-flight request completes despite the shutdown.
	for i := 0; i < inflight; i++ {
		select {
		case code := <-statuses:
			if code != http.StatusOK {
				t.Errorf("in-flight request answered %d during drain, want 200", code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("in-flight request never answered during drain")
		}
	}

	// And the process exits cleanly within the drain budget.
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("zngd exited non-zero after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("zngd did not exit within the drain budget")
	}
}
