package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one triserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer  // read only after exited is closed
	exited chan struct{} // closed once the process has been waited for
}

func startServer(bin string, args []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	// Should the harness itself be killed, the kernel stops the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start triserve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server is not a result
		close(s.exited)
	}()
	return s, nil
}

// awaitHealthy polls /healthz until it answers 200.
func (s *server) awaitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("triserve exited before answering /healthz: %s", s.stderr.String())
		case <-ctx.Done():
			return fmt.Errorf("triserve never answered /healthz: %w", ctx.Err())
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, kills it if the drain overruns, and
// returns once the process has been waited for.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB is the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

func post(ctx context.Context, hc *http.Client, base string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// warmUp sends every distinct spec once from a single client. Each reply
// must be verified; the replies become the references every later reply to
// the same spec must match byte for byte.
func warmUp(ctx context.Context, hc *http.Client, base string, w *workload, t *tally) [][]byte {
	refs := make([][]byte, len(w.jobs))
	for i, j := range w.jobs {
		status, body, err := post(ctx, hc, base, j.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up HTTP %d: %.200s", status, body)
		}
		if err == nil {
			err = checkVerified(body)
		}
		t.record(err)
		refs[i] = body
	}
	return refs
}

// load is what the closed loop measured.
type load struct {
	lat   []float64 // per-request latency as the client sees it
	spec  []int     // lat[i] is a request for w.jobs[spec[i]]
	tally tally
	wall  float64 // seconds for all passes
}

// closedLoop sends the workload's whole request sequence, each client
// sending its next request only when its previous reply has arrived.
func closedLoop(ctx context.Context, hc *http.Client, base string, w *workload, refs [][]byte) load {
	out := load{lat: make([]float64, len(w.order)), spec: w.order}
	errs := make([]error, len(w.order))
	start := time.Now()
	walk(w.order, w.clients, func(_, i, ji int) {
		t0 := time.Now()
		status, body, err := post(ctx, hc, base, w.jobs[ji].body)
		out.lat[i] = time.Since(t0).Seconds()
		errs[i] = checkResponse(status, body, refs[ji], err)
	})
	out.wall = time.Since(start).Seconds()
	for _, err := range errs {
		out.tally.record(err)
	}
	return out
}

// printPerSpec prints each distinct spec's median latency, so a shift in
// latency_p50_s can be traced to the specs that moved.
func printPerSpec(w *workload, l load) {
	by := make([][]float64, len(w.jobs))
	for i, ji := range l.spec {
		by[ji] = append(by[ji], l.lat[i])
	}
	for ji, xs := range by {
		fmt.Printf("spec %2d %-8s p50 %.6f s over %d requests: %s\n", ji, w.jobs[ji].algo, median(xs), len(xs), w.jobs[ji].body)
	}
}

// runServed is the end-to-end run: several timed set-ups (spawn, /healthz,
// warm-up), then the closed loop against the last server started.
func runServed(ctx context.Context, w *workload, bin, dir string, prov *provenance) (report, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	jpath := filepath.Join(dir, "triserve.journal")
	args := append(append([]string(nil), w.flags...), "-journal", jpath)
	prov.Flags = args
	prov.JournalFS = fsType(dir)

	var t tally
	var setups []float64
	var refs [][]byte
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < w.setups; i++ {
		if srv != nil {
			srv.stop()
			tr.CloseIdleConnections()
		}
		if err := w.freshJournal(jpath); err != nil {
			return report{}, err
		}
		t0 := time.Now()
		s, err := startServer(bin, args)
		if err != nil {
			return report{}, err
		}
		srv = s
		if err := s.awaitHealthy(ctx, hc); err != nil {
			return report{}, err
		}
		got := warmUp(ctx, hc, s.base, w, &t)
		setups = append(setups, time.Since(t0).Seconds())
		if refs == nil {
			refs = got
		} else {
			for j := range got {
				t.record(checkBody(got[j], refs[j]))
			}
		}
	}
	fmt.Printf("setup_s samples %v\n", setups)
	rep := report{Metrics: map[string]metric{}}
	rep.set("setup_s", median(setups))
	if t.correct() {
		l := closedLoop(ctx, hc, srv.base, w, refs)
		t.add(l.tally)
		rss, err := srv.peakRSSMB()
		if err != nil {
			return report{}, err
		}
		tail := tailOf(l.lat)
		fmt.Printf("latency_tail_s is p%.2f: %d of %d samples beyond it\n", tail.Percentile, tail.Beyond, tail.Samples)
		printPerSpec(w, l)
		rep.set("jobs_per_s", float64(l.tally.attempted-l.tally.failed)/l.wall)
		rep.set("latency_p50_s", median(l.lat))
		rep.set("latency_tail_s", tail.Value)
		rep.set("peak_rss_mb", rss)
	}
	rep.finish(ctx, t)
	return rep, nil
}
