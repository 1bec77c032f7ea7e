package congest

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// ErrNotCheckpointable rejects checkpoint specs for algorithm families
// that cannot be cut and resumed: the counting job runs to quiescence, so
// it has no schedule to resume into and its counter writes no snapshot
// state; churn is not an engine run at all.
var ErrNotCheckpointable = errors.New("congest: algorithm does not support checkpointing")

// CheckpointSpec configures periodic engine snapshots for a job, and
// optionally resuming from the latest one.
type CheckpointSpec struct {
	// Every is the snapshot cadence in rounds. Zero takes no periodic
	// snapshots but still persists one at a cancellation boundary, which
	// is exactly what job preemption needs.
	Every int `json:"every,omitempty"`
	// Dir is the directory checkpoint files live in. Required.
	Dir string `json:"dir"`
	// Resume starts the job from the latest compatible checkpoint in Dir
	// when one exists (cold start otherwise). The resumed result is
	// byte-identical to running straight through.
	Resume bool `json:"resume,omitempty"`
}

// CheckpointMeta is the checkpoint provenance a Result carries: where the
// job's snapshots live and under which spec identity. Deliberately free of
// run history (resume round etc.), so a resumed job's Result stays
// byte-identical to the uninterrupted one.
type CheckpointMeta struct {
	Every    int    `json:"every,omitempty"`
	Dir      string `json:"dir"`
	SpecHash string `json:"specHash"`
}

// SpecHash returns the job's checkpoint identity: an FNV-64a over the
// canonical spec JSON with the ignored Shards and Parallel fields and the
// checkpoint config itself zeroed. Two specs with the same hash produce
// bit-identical runs, so their checkpoints are interchangeable; placement
// may legally differ between the saving and the resuming run.
func (s JobSpec) SpecHash() string {
	c := s
	c.Parallel = false
	c.Shards = 0
	c.Checkpoint = nil
	b, err := json.Marshal(c)
	if err != nil { // no spec field is unmarshalable; defensive only
		panic(fmt.Sprintf("congest: spec hash: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// graphHashOf fingerprints the materialized graph (FNV-64a over n, m and
// the CSR slabs), so a checkpoint refuses to resume against a different
// graph even when the spec hash matches (e.g. a changed file behind the
// same path).
func graphHashOf(g *graph.Graph) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	offs, tgts := g.CSR()
	for _, o := range offs {
		put(uint64(uint32(o)))
	}
	for _, t := range tgts {
		put(uint64(uint32(t)))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ckptMetaOf builds the provenance envelope for a job's checkpoints.
func ckptMetaOf(spec JobSpec, g *graph.Graph, cfg sim.Config) checkpoint.Meta {
	return checkpoint.Meta{
		SpecHash:  spec.SpecHash(),
		GraphHash: graphHashOf(g),
		Algo:      spec.Algo,
		Seed:      spec.Seed,
		N:         g.N(),
		M:         g.M(),
		Bandwidth: spec.bandwidth(),
		Mode:      int(cfg.Mode),
		Scheduler: int(cfg.Scheduler),
		Shards:    cfg.Shards,
	}
}

// checkpointPlanFor translates a job's CheckpointSpec into the core run
// plan: a Save closure wrapping payloads in provenance, and — for resume
// jobs — the latest compatible checkpoint as the starting point. Returns
// (nil, nil, nil) when the spec doesn't checkpoint.
func checkpointPlanFor(spec JobSpec, g *graph.Graph, cfg sim.Config) (*CheckpointMeta, *core.CheckpointPlan, error) {
	cs := spec.Checkpoint
	if cs == nil {
		return nil, nil, nil
	}
	meta := ckptMetaOf(spec, g, cfg)
	plan := &core.CheckpointPlan{
		Every: cs.Every,
		Save: func(round int, payload []byte) error {
			m := meta
			m.Round = round
			_, err := checkpoint.Save(cs.Dir, checkpoint.New(m, payload))
			return err
		},
	}
	if cs.Resume {
		rp, err := resumePoint(cs.Dir, meta, math.MaxInt)
		if err != nil && !errors.Is(err, checkpoint.ErrNotFound) {
			return nil, nil, err
		}
		plan.Resume = rp // nil when there is nothing to resume from: cold start
	}
	return &CheckpointMeta{Every: cs.Every, Dir: cs.Dir, SpecHash: meta.SpecHash}, plan, nil
}

// resumePoint loads the highest-round checkpoint of meta's spec in dir at
// or below round and checks its provenance against meta. Returns
// checkpoint.ErrNotFound (wrapped) when none qualifies.
func resumePoint(dir string, meta checkpoint.Meta, round int) (*core.ResumePoint, error) {
	ck, _, err := checkpoint.Nearest(dir, meta.SpecHash, round)
	if err != nil {
		return nil, err
	}
	if err := ck.Meta.CompatibleWith(meta); err != nil {
		return nil, err
	}
	return &core.ResumePoint{Round: ck.Meta.Round, Payload: ck.Payload}, nil
}

// ReplayInfo summarizes a time-travel replay: which checkpoint anchored
// it and how much work it actually re-ran.
type ReplayInfo struct {
	// CheckpointRound is the round of the anchoring checkpoint (the
	// nearest one at or below the window start).
	CheckpointRound int `json:"checkpointRound"`
	// From and To are the observed window, inclusive.
	From int `json:"from"`
	To   int `json:"to"`
	// ReplayedRounds is the rounds executed, including the silent
	// catch-up between the checkpoint and the window.
	ReplayedRounds int `json:"replayedRounds"`
}

// Replay re-derives the observation stream of rounds [from, to] of a
// checkpointed job — segment, round, triangle and fault events — without
// re-running the rounds before the nearest checkpoint at or below from. It
// is a resume from that checkpoint that writes no checkpoints, streams only
// the window and stops after round to. The spec must carry the same
// Checkpoint config the original run used; the delivered stream is
// bit-identical to the corresponding window of the straight-through run.
func (s *Session) Replay(spec JobSpec, from, to int, obs Observer) (ReplayInfo, error) {
	if err := spec.Validate(); err != nil {
		return ReplayInfo{}, err
	}
	if spec.Checkpoint == nil {
		return ReplayInfo{}, fmt.Errorf("congest: replay needs a checkpoint spec")
	}
	if from > to {
		return ReplayInfo{}, fmt.Errorf("checkpoint: replay window [%d, %d] is empty", from, to)
	}
	g, err := s.Graph(spec.Graph)
	if err != nil {
		return ReplayInfo{}, err
	}
	cfg := s.engineConfig(spec, g)
	rp, err := resumePoint(spec.Checkpoint.Dir, ckptMetaOf(spec, g, cfg), from)
	if err != nil && !errors.Is(err, checkpoint.ErrNotFound) {
		return ReplayInfo{}, err
	}
	// With no checkpoint at or below from (a window before the first
	// periodic save, say) the replay is a cold start from round 0, as for
	// a resuming job: CheckpointRound reads 0, and ReplayedRounds counts
	// every round run from round 0.
	anchor := 0
	if rp != nil {
		anchor = rp.Round
	}
	ab, err := buildAlgo(spec, g)
	if err != nil {
		return ReplayInfo{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &windowObs{obs: coreObs(obs), from: from, to: to, cur: anchor, cancel: cancel}
	res, err := s.engines.Run(ctx, g, ab.segs, cfg, w, &core.CheckpointPlan{Resume: rp})
	if err != nil && !res.Meta.Cancelled {
		return ReplayInfo{}, err
	}
	return ReplayInfo{
		CheckpointRound: anchor,
		From:            from,
		To:              to,
		ReplayedRounds:  res.Meta.ExecutedRounds - anchor,
	}, nil
}

// windowObs passes the events of rounds [from, to] of a replayed run on to
// obs and cancels the run once round to has executed. Triangle events
// belong to the round being stepped, cur; a segment belongs to its start
// round and a fault event to its own round.
type windowObs struct {
	obs      core.Observer // nil drops every event
	from, to int
	cur      int
	cancel   context.CancelFunc
}

func (w *windowObs) in(round int) bool {
	return w.obs != nil && round >= w.from && round <= w.to
}

func (w *windowObs) OnSegment(info core.SegmentInfo) {
	if w.in(info.StartRound) {
		w.obs.OnSegment(info)
	}
}

func (w *windowObs) OnRound(round int, d sim.RoundDelta) {
	if w.in(round) {
		w.obs.OnRound(round, d)
	}
	w.cur = round + 1
	if round >= w.to {
		w.cancel()
	}
}

func (w *windowObs) OnTriangle(node int, t graph.Triangle) {
	if w.in(w.cur) {
		w.obs.OnTriangle(node, t)
	}
}

func (w *windowObs) OnFault(ev sim.FaultEvent) {
	if fo, ok := w.obs.(core.FaultObserver); ok && w.in(ev.Round) {
		fo.OnFault(ev)
	}
}
