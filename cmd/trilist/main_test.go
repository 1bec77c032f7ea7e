package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/congest"
	"repro/internal/graph"
)

func TestRunAlgorithms(t *testing.T) {
	cases := [][]string{
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "list", "-show", "2"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "find"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "a1"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "a2"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "a3"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "twohop"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "local"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "dolev"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "dolev-deg"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "dolev-relay"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "count"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "tester"},
		{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "bcast-twohop"},
		{"-gen", "ba", "-n", "24", "-k", "3", "-algo", "list"},
		{"-gen", "planted", "-n", "30", "-k", "4", "-algo", "find", "-eps", "0.4"},
		{"-gen", "bipartite", "-n", "20", "-p", "0.5", "-algo", "find"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatalf("run(%v): %v", args, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-algo", "nope", "-n", "10"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-gen", "nope", "-n", "10"}); err == nil {
		t.Fatal("unknown generator accepted")
	}
	if err := run([]string{"-load", "/definitely/missing/file"}); err == nil {
		t.Fatal("missing file accepted")
	}
	// The session places every job, so there is no placement flag.
	if err := run([]string{"-gen", "gnp", "-n", "10", "-shards", "2"}); err == nil {
		t.Fatal("-shards accepted")
	}
}

func TestRunLoadsEdgeList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Complete(8)
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", path, "-algo", "twohop", "-show", "0"}); err != nil {
		t.Fatalf("run with -load: %v", err)
	}
}

// TestRunFaultsFlag covers both -faults forms end to end: compact
// key=value plans and an @file JSON plan, plus the malformed-entry errors.
func TestRunFaultsFlag(t *testing.T) {
	base := []string{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "list"}
	for _, plan := range []string{
		"loss=0.2,dup=0.05,seed=11",
		"crash=3@5,crash=7@0,delayMax=2",
		"link=0>1@4,seed=9",
	} {
		if err := run(append(append([]string{}, base...), "-faults", plan)); err != nil {
			t.Fatalf("-faults %q: %v", plan, err)
		}
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	blob := `{"seed": 11, "crashes": [{"node": 3, "round": 5}], "loss": 0.1, "delayMax": 2}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-faults", "@"+path)); err != nil {
		t.Fatalf("-faults @file: %v", err)
	}
	for _, bad := range []string{
		"loss=2",         // out of range (validation)
		"loss",           // not key=value
		"crash=3",        // missing @ROUND
		"link=0@4",       // missing >TO
		"nope=1",         // unknown key
		"crash=x@1",      // bad node
		"@/missing/plan", // unreadable file
	} {
		if err := run(append(append([]string{}, base...), "-faults", bad)); err == nil {
			t.Fatalf("-faults %q accepted", bad)
		}
	}
	if err := run([]string{"-gen", "gnp", "-n", "16", "-algo", "count", "-faults", "loss=0.1"}); err == nil {
		t.Fatal("faults accepted for algo count")
	}
}

// stdoutOf runs the command with args and returns what it printed.
func stdoutOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReplayRoundPrintsFaults checkpoints a faulty job and replays its
// crash round: the replay prints the crash along with the round's stream.
func TestReplayRoundPrintsFaults(t *testing.T) {
	job := []string{"-gen", "gnp", "-n", "24", "-p", "0.5", "-algo", "find",
		"-faults", "crash=3@10,loss=0.1,seed=11", "-checkpoint", "every=4,dir=" + t.TempDir()}
	stdoutOf(t, job...)
	out := stdoutOf(t, append(job, "-replay-round", "10")...)
	for _, want := range []string{"fault: crash node=3 round=10\n", "round 10: ", "replay: round=10 anchor="} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output lacks %q:\n%s", want, out)
		}
	}
}

// TestCheckLine pins the cause a failed check names, for all five
// verification modes, without and with a fault plan: the Monte Carlo
// listing and finding checks blame a probabilistic miss or a bug, the
// exact one-sided, count and churn checks a bug, and under a plan any
// check also the faults it injects. A plan that injects nothing is not
// blamed.
func TestCheckLine(t *testing.T) {
	plan := &congest.FaultSummary{Hash: "00000000000000ab", Crashes: 1, Loss: 0.1, DelayMax: 2}
	seedOnly := &congest.FaultSummary{Hash: "00000000000000cd"}
	for _, c := range []struct {
		mode   string
		faults *congest.FaultSummary
		want   string
	}{
		{congest.VerifyListing, nil, "check: listing FAILED (probabilistic miss or bug): detail"},
		{congest.VerifyFinding, nil, "check: finding FAILED (probabilistic miss or bug): detail"},
		{congest.VerifyOneSided, nil, "check: one-sided FAILED (bug): detail"},
		{"count", nil, "check: count FAILED (bug): detail"},
		{"churn", nil, "check: churn FAILED (bug): detail"},
		{congest.VerifyListing, plan, "check: listing FAILED (injected faults [crashes=1 loss=0.1 delayMax=2], probabilistic miss or bug): detail"},
		{congest.VerifyFinding, plan, "check: finding FAILED (injected faults [crashes=1 loss=0.1 delayMax=2], probabilistic miss or bug): detail"},
		{congest.VerifyOneSided, plan, "check: one-sided FAILED (injected faults [crashes=1 loss=0.1 delayMax=2] or bug): detail"},
		{"count", plan, "check: count FAILED (injected faults [crashes=1 loss=0.1 delayMax=2] or bug): detail"},
		{"churn", plan, "check: churn FAILED (injected faults [crashes=1 loss=0.1 delayMax=2] or bug): detail"},
		{congest.VerifyOneSided, seedOnly, "check: one-sided FAILED (bug): detail"},
	} {
		if got := checkLine(&congest.VerifyReport{Mode: c.mode, Detail: "detail"}, c.faults); got != c.want {
			t.Errorf("%s (plan %v):\n got %q\nwant %q", c.mode, c.faults != nil, got, c.want)
		}
		if got, want := checkLine(&congest.VerifyReport{Mode: c.mode, OK: true}, c.faults), "check: "+c.mode+" OK"; got != want {
			t.Errorf("%s: OK line %q, want %q", c.mode, got, want)
		}
	}
	links := &congest.FaultSummary{Dup: 0.05, DelayLinks: 3}
	if got, want := injectedFaults(links), "dup=0.05 links=3"; got != want {
		t.Errorf("injectedFaults = %q, want %q", got, want)
	}
}
