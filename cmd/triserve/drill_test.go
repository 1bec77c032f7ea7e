package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/congest"
	"repro/internal/checkpoint"
)

// The crash-recovery drill: run the real triserve binary with a journal,
// kill it mid-job, restart it, and check the recovered job's Result is
// byte-identical to an uninterrupted run. TestCrashRecoveryDrill kills
// with SIGKILL (nothing flushes except what fsync already made durable);
// TestDrainResumeDrill sends SIGTERM and additionally requires a clean,
// bounded exit.
//
// The drill graph defaults to a generated G(n,p); CI points
// TRISERVE_DRILL_GRAPH at a large csrbin file to run the drill at 10^5
// nodes.

func buildTriserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "triserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// drillSpec is the checkpointing job the drill interrupts.
func drillSpec(t *testing.T, ckdir string) congest.JobSpec {
	t.Helper()
	spec := congest.JobSpec{
		Graph:      congest.GraphSpec{Generator: "gnp", N: 96, P: 0.5, Seed: 1},
		Algo:       "find",
		Seed:       7,
		Verify:     congest.VerifyNone,
		Checkpoint: &congest.CheckpointSpec{Every: 2, Dir: ckdir},
	}
	if path := os.Getenv("TRISERVE_DRILL_GRAPH"); path != "" {
		// CI's 10^5-node run: a2, the heavy-pair listing component, keeps
		// the drill at seconds at this scale (the full finder would run for
		// minutes), with the same every-8 cadence as the trilist
		// kill/resume smoke on the same graph.
		spec.Graph = congest.GraphSpec{File: path}
		spec.Algo = "a2"
		spec.Checkpoint.Every = 8
	}
	return spec
}

type drillServer struct {
	cmd  *exec.Cmd
	addr string
}

func startTriserve(t *testing.T, bin, addr, jpath string) *drillServer {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-max-n", "0",
		"-journal", jpath, "-drain-timeout", "60s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &drillServer{cmd: cmd, addr: addr}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("triserve at %s never became healthy", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func submitDrillJob(t *testing.T, addr string, spec congest.JobSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.ID == "" {
		t.Fatalf("submit: status %d, decode %v", resp.StatusCode, err)
	}
	return v.ID
}

// awaitCheckpoint polls until the job has persisted at least minRounds
// checkpoint rounds, proving the kill lands genuinely mid-job.
func awaitCheckpoint(t *testing.T, ckdir, specHash string, minRounds int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if rounds := checkpoint.Rounds(ckdir, specHash); len(rounds) >= minRounds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoints appeared in %s", ckdir)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func awaitResult(t *testing.T, addr, id string) congest.Result {
	t.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for {
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + id + "?wait=10s")
		if err == nil {
			var v struct {
				Status congest.JobStatus `json:"status"`
				Result *congest.Result   `json:"result"`
				Error  string            `json:"error"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if derr == nil {
				switch v.Status {
				case congest.JobDone:
					return *v.Result
				case congest.JobFailed, congest.JobCancelled:
					t.Fatalf("job %s finished as %s: %s", id, v.Status, v.Error)
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runDrill(t *testing.T, interrupt func(t *testing.T, s *drillServer)) {
	bin := buildTriserve(t)
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	ckdir := t.TempDir()
	spec := drillSpec(t, ckdir)
	addr := freeAddr(t)

	s := startTriserve(t, bin, addr, jpath)
	id := submitDrillJob(t, addr, spec)
	awaitCheckpoint(t, ckdir, spec.SpecHash(), 1)
	interrupt(t, s)

	// Restart on the same address with the same journal: the job must come
	// back under the same id, resume from its checkpoint, and finish.
	startTriserve(t, bin, addr, jpath)
	got := awaitResult(t, addr, id)

	// Ground truth: the same spec straight through, in-process (the
	// checkpoint files are deterministic, so sharing the directory is
	// idempotent), its oracle pinned to one worker; Results match at any
	// oracle width.
	want, err := congest.NewSession(congest.WithOracleWorkers(1)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered result not byte-identical to straight-through run\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
}

func TestCrashRecoveryDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("drill")
	}
	runDrill(t, func(t *testing.T, s *drillServer) {
		// kill -9: no drain, no flush. Durability comes from the fsync'd
		// journal and checkpoints alone.
		if err := s.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		_, _ = s.cmd.Process.Wait()
	})
}

func TestDrainResumeDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("drill")
	}
	runDrill(t, func(t *testing.T, s *drillServer) {
		// SIGTERM: the server must journal the preemption, stop at the next
		// checkpoint boundary, and exit cleanly within the drain bound.
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			state, err := s.cmd.Process.Wait()
			if err == nil && !state.Success() {
				err = fmt.Errorf("drain exit: %s", state)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil && !strings.Contains(err.Error(), "already") {
				t.Fatal(err)
			}
		case <-time.After(90 * time.Second):
			t.Fatal("SIGTERM drain did not exit in time")
		}
	})
}
