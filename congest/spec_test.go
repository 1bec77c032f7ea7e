package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestJobSpecGoldens round-trips every golden spec: the file must parse
// strictly, validate, and re-marshal byte-identically — pinning both the
// field names (the wire format) and the omit-empty minimality.
func TestJobSpecGoldens(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "spec_*.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no spec goldens found: %v", err)
	}
	for _, path := range goldens {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseJobSpec(data)
			if err != nil {
				t.Fatalf("golden rejected: %v", err)
			}
			out, err := json.MarshalIndent(spec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := string(out), strings.TrimRight(string(data), "\n"); got != want {
				t.Errorf("round trip drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			// And the parsed form survives a second trip through the wire.
			spec2, err := ParseJobSpec(out)
			if err != nil {
				t.Fatal(err)
			}
			out2, _ := json.MarshalIndent(spec2, "", "  ")
			if !bytes.Equal(out, out2) {
				t.Error("second round trip not a fixed point")
			}
		})
	}
}

// TestParseJobSpecRejectsUnknownFields pins the strict-decoding contract:
// a misspelled tunable must fail loudly, not silently become a default.
func TestParseJobSpecRejectsUnknownFields(t *testing.T) {
	cases := []string{
		`{"graph": {"generator": "gnp", "n": 8}, "algo": "list", "bandwith": 4}`,
		`{"graph": {"generator": "gnp", "n": 8, "q": 0.5}, "algo": "list"}`,
		`{"graph": {"generator": "gnp", "n": 8}, "algo": "churn", "churn": {"workload": "flip", "batch": 4}}`,
		`{"graph": {"generator": "gnp", "n": 8}, "algo": "list"} trailing`,
	}
	for _, c := range cases {
		if _, err := ParseJobSpec([]byte(c)); err == nil {
			t.Errorf("accepted bad spec %s", c)
		}
	}
}

// TestJobSpecValidate covers the shape rules.
func TestJobSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "nope"},
		{Graph: GraphSpec{}, Algo: "list"},
		{Graph: GraphSpec{Generator: "gnp", N: 8, File: "x"}, Algo: "list"},
		{Graph: GraphSpec{Generator: "gnp"}, Algo: "list"},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "list", Eps: 1.5},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "list", Verify: "maybe"},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "churn"},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "list", Churn: &ChurnSpec{Workload: "flip"}},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "churn", Churn: &ChurnSpec{Workload: "nope"}},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "list", Bandwidth: -1},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "list", Bandwidth: 1 << 32},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "list", Shards: -2},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "find", Repetitions: maxRepetitions + 1},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "find", Repetitions: 1_000_000_000},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "tester", Probes: -1},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "tester", Probes: maxProbes + 1},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "tester", Probes: 1_000_000_000_000},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "churn", Churn: &ChurnSpec{Workload: "flip", BatchSize: maxBatchSize + 1}},
		{Graph: GraphSpec{Generator: "gnp", N: 8}, Algo: "churn", Churn: &ChurnSpec{Workload: "window", BatchSize: 200_000_000}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: bad spec validated", i)
		}
	}
	good := []JobSpec{
		{Graph: GraphSpec{Generator: "gnp", N: 8, P: 0.5}, Algo: "list"},
		{Graph: GraphSpec{Generator: "gnp", N: 8, P: 0.5}, Algo: "list", Bandwidth: 1<<32 - 1},
		{Graph: GraphSpec{Generator: "gnp", N: 8, P: 0.5}, Algo: "find", Repetitions: maxRepetitions},
		{Graph: GraphSpec{Generator: "gnp", N: 8, P: 0.5}, Algo: "tester", Probes: maxProbes},
		{Graph: GraphSpec{Generator: "gnp", N: 8, P: 0.5}, Algo: "churn", Churn: &ChurnSpec{Workload: "growth", BatchSize: maxBatchSize}},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("case %d: good spec rejected: %v", i, err)
		}
	}
}

// TestRunCSRBinFileAndShards pins the large-graph plumbing end to end: a
// .csrbin GraphSpec file is detected by suffix and loaded through the
// binary (mmap) path, a job on a session pinned to four shards runs over
// it, and the result is bit-identical to the same job over the
// generator-sourced graph with the default one-shard plan.
func TestRunCSRBinFileAndShards(t *testing.T) {
	gspec := GraphSpec{Generator: "gnp", N: 48, P: 0.2, Seed: 6}
	g, err := LoadGraph(gspec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csrbin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	werr := graph.WriteCSRBinary(f, g)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		t.Fatal(werr)
	}
	base := JobSpec{Graph: gspec, Algo: "list", Seed: 3}
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Graph = GraphSpec{File: path}
	got, err := pinnedSession(4).Run(context.Background(), sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("csrbin+sharded result diverges\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestRunSNAPFileAutoDetect: a headerless SNAP edge-list file (comments,
// non-contiguous IDs, duplicates, a self-loop) loads through the GraphSpec
// file path's format sniffing, and a job over it matches the same job over
// the equivalent inline graph.
func TestRunSNAPFileAutoDetect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "web.txt") // no special suffix needed
	blob := "# SNAP dump\n1000\t7\n7\t33\n33\t1000\n1000 7\n33 33\n"
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := Run(context.Background(), JobSpec{Graph: GraphSpec{File: path}, Algo: "list", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inline := GraphSpec{N: 3, Edges: [][2]int{{0, 1}, {0, 2}, {1, 2}}}
	want, err := Run(context.Background(), JobSpec{Graph: inline, Algo: "list", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, want) {
		t.Fatalf("SNAP-sourced run diverges from inline equivalent\ngot:  %+v\nwant: %+v", fromFile, want)
	}
}

// TestRunUnknownGeneratorAndMissingFile: a valid-shape spec can still fail
// environmentally, with a useful error.
func TestRunUnknownGeneratorAndMissingFile(t *testing.T) {
	if _, err := LoadGraph(GraphSpec{Generator: "nope", N: 8}); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown generator error: %v", err)
	}
	if _, err := LoadGraph(GraphSpec{File: "/definitely/missing"}); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := LoadGraph(GraphSpec{N: 4, Edges: [][2]int{{0, 0}}}); err == nil {
		t.Error("self-loop accepted")
	}
}
