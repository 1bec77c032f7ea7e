package congest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultDigest is the SHA-256 of a Result's JSON encoding.
func resultDigest(t *testing.T, res Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultsGolden pins Result bytes across builds. Every other
// determinism test compares two runs of the same build, so a change that
// moves every placement the same way passes them all; this one compares
// against testdata/results.golden, one line per case:
//
//	<case> <spec hash> <sha256 of the Result JSON>
//
// It covers every algorithm on a small graph and, for each checkpointable
// one, a 4-shard run and a cut-and-resumed run (both must hash the same as
// the plain run) and a faulty run. Regenerate after an intentional change
// to Result bytes with:
//
//	UPDATE_RESULTS=1 go test ./congest -run TestResultsGolden
func TestResultsGolden(t *testing.T) {
	var lines []string
	add := func(name string, spec JobSpec, res Result) string {
		d := resultDigest(t, res)
		lines = append(lines, fmt.Sprintf("%s %s %s", name, spec.SpecHash(), d))
		return d
	}
	s := NewSession()
	run := func(spec JobSpec) Result {
		t.Helper()
		res, err := s.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Algo, err)
		}
		return res
	}
	for _, algo := range AlgorithmNames() {
		spec := gnpSpec(algo)
		if algo == "churn" {
			spec.Churn = &ChurnSpec{Workload: "flip", BatchSize: 8, Epochs: 3}
		}
		plainRes := run(spec)
		plain := add(algo, spec, plainRes)
		if algo == "count" || algo == "churn" {
			continue
		}

		// The same session, pinned to four shards: its pooled engine is
		// re-cut for the run.
		s.shards = 4
		sharded := run(spec)
		s.shards = 0
		if d := add(algo+"/shards4", spec, sharded); d != plain {
			t.Errorf("%s: 4-shard Result differs from the plain run", algo)
		}

		resumed := ckptSpec(algo, t.TempDir(), 4)
		cancelRun(t, NewSession(), resumed, plainRes.Meta.ExecutedRounds/2)
		resumed.Checkpoint.Resume = true
		res := run(resumed)
		// The checkpoint provenance is the one declared difference from the
		// plain run, and its directory is a temporary path: check it, then
		// drop it.
		if ck := res.Meta.Checkpoint; ck == nil || ck.SpecHash != resumed.SpecHash() || ck.Every != 4 {
			t.Fatalf("%s: resumed checkpoint meta %+v", algo, ck)
		}
		res.Meta.Checkpoint = nil
		if d := add(algo+"/resumed", resumed, res); d != plain {
			t.Errorf("%s: cut-and-resumed Result differs from the plain run", algo)
		}

		faulty := faultySpec(algo)
		add(algo+"/faulty", faulty, run(faulty))
	}

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "results.golden")
	if os.Getenv("UPDATE_RESULTS") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d cases)", golden, len(lines))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_RESULTS=1 to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d cases, this build produced %d", golden, len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("Result bytes drifted:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
