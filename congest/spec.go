package congest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/graph"
)

// GraphSpec names a job's input graph declaratively. Exactly one source
// must be set: File (a graph file on the server's filesystem), Generator
// (a registered generator name plus its N/P/K/Seed parameters), or Edges
// (an inline edge list over N vertices).
type GraphSpec struct {
	// File is a graph file path. Files ending in ".csrbin" are read as the
	// repository's binary CSR container (memory-mapped where the platform
	// supports it); anything else is parsed as a text edge list, with the
	// dialect auto-detected per line one: the repository's "n <count>"
	// header format, or the headerless SNAP dump dialect (comment lines,
	// arbitrary non-contiguous node IDs relabeled densely, duplicate edges
	// and self-loops dropped).
	File string `json:"file,omitempty"`
	// Generator is a registered generator name; see GeneratorNames.
	Generator string `json:"generator,omitempty"`
	// N is the vertex count (Generator and Edges sources).
	N int `json:"n,omitempty"`
	// P is the generator's edge-probability parameter.
	P float64 `json:"p,omitempty"`
	// K is the generator's integer parameter (edge count, attachment
	// degree, ... — generator dependent).
	K int `json:"k,omitempty"`
	// Seed drives the generator's randomness.
	Seed int64 `json:"seed,omitempty"`
	// Edges is an inline undirected edge list over vertices [0, N).
	Edges [][2]int `json:"edges,omitempty"`
}

// Validate checks that the spec names exactly one graph source with sane
// parameters.
func (gs GraphSpec) Validate() error {
	sources := 0
	if gs.File != "" {
		sources++
	}
	if gs.Generator != "" {
		sources++
	}
	if gs.Edges != nil {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("congest: graph spec must name exactly one of file, generator or edges (got %d)", sources)
	}
	if gs.File == "" && gs.N <= 0 {
		return fmt.Errorf("congest: graph spec needs n > 0 (got %d)", gs.N)
	}
	return nil
}

// key returns the spec's canonical identity for session-level caching.
func (gs GraphSpec) key() string {
	b, _ := json.Marshal(gs)
	return string(b)
}

// build materializes the graph the spec describes.
func (gs GraphSpec) build() (*graph.Graph, error) {
	if err := gs.Validate(); err != nil {
		return nil, err
	}
	switch {
	case gs.File != "":
		if strings.HasSuffix(gs.File, ".csrbin") {
			// Binary CSR container; memory-mapped where supported, with the
			// mapping's lifetime tied to the returned graph.
			return graph.LoadCSRBinary(gs.File)
		}
		f, err := os.Open(gs.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeListAuto(f)
	case gs.Generator != "":
		rng := rand.New(rand.NewSource(gs.Seed))
		return graph.GeneratorByName(gs.Generator, gs.N, gs.P, gs.K, rng)
	default:
		edges := make([]graph.Edge, len(gs.Edges))
		for i, e := range gs.Edges {
			if e[0] == e[1] {
				return nil, fmt.Errorf("congest: inline edge %d is a self-loop (%d,%d)", i, e[0], e[1])
			}
			edges[i] = graph.NewEdge(e[0], e[1])
		}
		return graph.FromEdges(gs.N, edges)
	}
}

// LoadGraph materializes the graph a GraphSpec describes, without any
// session caching. It returns the repository's internal graph type for
// callers (CLIs, analysis code) that need direct structural access; job
// execution goes through Session/Service instead.
func LoadGraph(gs GraphSpec) (*graph.Graph, error) { return gs.build() }

// GeneratorNames returns the registered graph generator names, sorted.
func GeneratorNames() []string { return graph.GeneratorNames() }

// ChurnSpec configures a dynamic-graph churn job (Algo "churn"): the
// graph spec seeds a DynamicGraph, the named workload generates update
// batches, and the incremental oracle maintains the triangle set across
// epochs.
type ChurnSpec struct {
	// Workload is the churn workload name; see dynamic.WorkloadNames
	// ("window", "flip", "growth").
	Workload string `json:"workload"`
	// BatchSize is the edges updated per epoch. Zero means N.
	BatchSize int `json:"batchSize,omitempty"`
	// Epochs is the number of batches applied. Zero means 4.
	Epochs int `json:"epochs,omitempty"`
	// Window is the sliding-window length ("window" workload only). Zero
	// means the seed graph's edge count.
	Window int `json:"window,omitempty"`
}

// FaultCrash schedules the crash-stop failure of one node: from round
// Round on, the node's handler never runs again. Words it queued before
// crashing drain normally; words addressed to it drain and are dropped.
type FaultCrash struct {
	Node  int `json:"node"`
	Round int `json:"round"`
}

// FaultLink pins one directed link's delivery delay to exactly K rounds
// per activation burst, overriding the seeded distribution. An entry with
// To == From addresses node From's shared broadcast channel (broadcast
// CONGEST jobs).
type FaultLink struct {
	From int `json:"from"`
	To   int `json:"to"`
	K    int `json:"k"`
}

// FaultSpec is a job's declarative fault plan: crash-stop schedules,
// per-link loss/duplication coins and non-uniform delivery delay. All
// randomness derives from Seed (independent of the engine seed), so a
// faulty job remains fully determined by its spec — bit-identical across
// Parallel, Shards and checkpoint cut-and-resume, like every other job.
// Fault injection is supported for every engine-run algorithm; count and
// churn jobs reject it.
type FaultSpec struct {
	// Seed derives every fault coin.
	Seed int64 `json:"seed,omitempty"`
	// Crashes lists crash-stop failures.
	Crashes []FaultCrash `json:"crashes,omitempty"`
	// Loss is the per-(round, directed edge) probability in [0, 1] that a
	// delivered batch is dropped (after consuming bandwidth).
	Loss float64 `json:"loss,omitempty"`
	// Dup is the per-(round, directed edge) probability in [0, 1] that a
	// delivered batch arrives twice in the same round.
	Dup float64 `json:"dup,omitempty"`
	// DelayMax, when positive, delays each activation burst of each edge
	// by a seeded uniform draw from [0, DelayMax] rounds.
	DelayMax int `json:"delayMax,omitempty"`
	// DelayLinks is the adversarial delay table overriding DelayMax.
	DelayLinks []FaultLink `json:"delayLinks,omitempty"`
}

// plan converts the public fault spec to the engine-level plan; nil stays
// nil.
func (fs *FaultSpec) plan() *faults.Plan {
	if fs == nil {
		return nil
	}
	p := &faults.Plan{Seed: fs.Seed, Loss: fs.Loss, Dup: fs.Dup, DelayMax: fs.DelayMax}
	for _, c := range fs.Crashes {
		p.Crashes = append(p.Crashes, faults.Crash{Node: c.Node, Round: c.Round})
	}
	for _, l := range fs.DelayLinks {
		p.DelayLinks = append(p.DelayLinks, faults.LinkDelay{From: l.From, To: l.To, K: l.K})
	}
	return p
}

// Verification modes for JobSpec.Verify.
const (
	// VerifyAuto picks the strongest applicable check for the algorithm:
	// listing completeness for complete listers, the finding contract for
	// the finder, exactness for the counter, incremental-vs-recompute for
	// churn, one-sided correctness otherwise. The zero value.
	VerifyAuto = "auto"
	// VerifyNone skips verification (no oracle pass).
	VerifyNone = "none"
	// VerifyOneSided checks that every output is a real triangle of G.
	VerifyOneSided = "one-sided"
	// VerifyListing checks one-sidedness plus completeness against the
	// centralized oracle.
	VerifyListing = "listing"
	// VerifyFinding checks one-sidedness plus a nonempty output whenever G
	// has a triangle.
	VerifyFinding = "finding"
)

// JobSpec declares one run: the input graph, the algorithm, its tunables,
// and how to verify the output. The zero value of every optional field
// selects the documented default, so specs serialize minimally.
type JobSpec struct {
	// Graph names the input graph.
	Graph GraphSpec `json:"graph"`
	// Algo is the algorithm name; see AlgorithmNames.
	Algo string `json:"algo"`
	// Bandwidth is B, words per directed edge per round. Zero means 2;
	// the maximum is 2^32-1 (4294967295), the most an engine checkpoint
	// records.
	Bandwidth int `json:"bandwidth,omitempty"`
	// Seed drives the engine's per-node randomness. A job is fully
	// determined by its spec; the same spec always produces the same
	// result.
	Seed int64 `json:"seed,omitempty"`
	// Eps overrides the heaviness exponent (algorithms that use one). Zero
	// means the algorithm's default.
	Eps float64 `json:"eps,omitempty"`
	// Repetitions overrides the repetition count (find/list). Zero means
	// the default (5 for find, ceil(2 log n) for list).
	Repetitions int `json:"repetitions,omitempty"`
	// LogCorrected selects the paper's exact log-corrected eps thresholds
	// (find/list).
	LogCorrected bool `json:"logCorrected,omitempty"`
	// Probes is the property tester's probe-batch count. Zero means 16.
	Probes int `json:"probes,omitempty"`
	// Parallel is accepted and ignored: it has no effect on execution. It
	// stays so specs that set it — stored journals, older clients — still
	// parse under ParseJobSpec's strict decoding, and Result.Meta.Parallel
	// echoes it. Shards is the placement setting.
	Parallel bool `json:"parallel,omitempty"`
	// Shards partitions the engine's per-round work into that many
	// contiguous node shards with deterministic cross-shard message
	// exchange — the large-graph execution path; the shards run on all
	// CPUs. Zero or one runs the sequential single-shard engine; counts
	// above 64 run at 64. Results are bit-identical at every shard count,
	// so jobs over one graph share pooled engines whatever their shard
	// counts.
	Shards int `json:"shards,omitempty"`
	// Verify selects the verification mode; see VerifyAuto.
	Verify string `json:"verify,omitempty"`
	// MaxTriangles caps Result.Triangles (the full count is always in
	// Result.TriangleCount). Zero keeps every triangle; negative keeps
	// none.
	MaxTriangles int `json:"maxTriangles,omitempty"`
	// LowerBound additionally runs the Theorem-3 information-chain
	// analysis on the output (complete listing runs).
	LowerBound bool `json:"lowerBound,omitempty"`
	// Churn configures the churn job; required iff Algo is "churn".
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Checkpoint enables periodic engine snapshots (and resume) for this
	// job; see CheckpointSpec. Not supported for count/churn.
	Checkpoint *CheckpointSpec `json:"checkpoint,omitempty"`
	// Faults injects deterministic faults into the run; see FaultSpec.
	// Not supported for count/churn.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// algoSet is the closed set of job algorithm names.
var algoSet = map[string]bool{
	"list": true, "find": true, "a1": true, "a2": true, "a3": true,
	"axr": true, "twohop": true, "local": true, "dolev": true,
	"dolev-deg": true, "dolev-relay": true, "bcast-twohop": true,
	"tester": true, "count": true, "churn": true,
}

// AlgorithmNames returns the job algorithm names, sorted: the paper's
// finder/lister and building blocks (find, list, a1, a2, a3, axr), the
// baselines (twohop, local, dolev*, bcast-twohop), the extensions (tester,
// count) and the dynamic-graph churn job (churn).
func AlgorithmNames() []string {
	names := make([]string, 0, len(algoSet))
	for name := range algoSet {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Validate checks the spec without running it: a valid spec either runs or
// fails for environmental reasons (missing file), never for shape.
func (s JobSpec) Validate() error {
	if !algoSet[s.Algo] {
		return fmt.Errorf("congest: unknown algorithm %q (registered: %s)",
			s.Algo, strings.Join(AlgorithmNames(), ", "))
	}
	if err := s.Graph.Validate(); err != nil {
		return err
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("congest: negative bandwidth %d", s.Bandwidth)
	}
	if int64(s.Bandwidth) > math.MaxUint32 {
		return fmt.Errorf("congest: bandwidth %d above the maximum %d", s.Bandwidth, int64(math.MaxUint32))
	}
	if s.Eps < 0 || s.Eps > 1 {
		return fmt.Errorf("congest: eps %v outside [0, 1]", s.Eps)
	}
	if s.Repetitions < 0 {
		return fmt.Errorf("congest: negative repetitions %d", s.Repetitions)
	}
	if s.Shards < 0 {
		return fmt.Errorf("congest: negative shards %d", s.Shards)
	}
	switch s.Verify {
	case "", VerifyAuto, VerifyNone, VerifyOneSided, VerifyListing, VerifyFinding:
	default:
		return fmt.Errorf("congest: unknown verify mode %q", s.Verify)
	}
	if s.Checkpoint != nil {
		if s.Algo == "count" || s.Algo == "churn" {
			return fmt.Errorf("%w: %q", ErrNotCheckpointable, s.Algo)
		}
		if s.Checkpoint.Dir == "" {
			return fmt.Errorf("congest: checkpoint spec needs a directory")
		}
		if s.Checkpoint.Every < 0 {
			return fmt.Errorf("congest: negative checkpoint cadence %d", s.Checkpoint.Every)
		}
	}
	if s.Faults != nil {
		if s.Algo == "count" || s.Algo == "churn" {
			return fmt.Errorf("congest: fault injection is not supported for algo %q", s.Algo)
		}
		if err := s.Faults.plan().Validate(); err != nil {
			return fmt.Errorf("congest: %w", err)
		}
	}
	if (s.Algo == "churn") != (s.Churn != nil) {
		return fmt.Errorf("congest: churn spec required iff algo is \"churn\"")
	}
	if s.Churn != nil {
		names := dynamic.WorkloadNames()
		ok := false
		for _, n := range names {
			ok = ok || n == s.Churn.Workload
		}
		if !ok {
			return fmt.Errorf("congest: unknown churn workload %q (registered: %s)",
				s.Churn.Workload, strings.Join(names, ", "))
		}
		if s.Churn.BatchSize < 0 || s.Churn.Epochs < 0 || s.Churn.Window < 0 {
			return fmt.Errorf("congest: negative churn parameter")
		}
	}
	return nil
}

// ParseJobSpec decodes a JSON job spec strictly: unknown fields are
// rejected (a misspelled tunable must not silently become a default), and
// the decoded spec is validated. This is the decoding path servers should
// use on untrusted input.
func ParseJobSpec(data []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("congest: bad job spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return JobSpec{}, fmt.Errorf("congest: trailing data after job spec")
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}
