package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
)

// ckptSpec is gnpSpec with checkpointing into dir.
func ckptSpec(algo, dir string, every int) JobSpec {
	s := gnpSpec(algo)
	s.Checkpoint = &CheckpointSpec{Every: every, Dir: dir}
	return s
}

// TestCheckpointSpecValidate pins the checkpointability rules: algorithm
// families whose state cannot be snapshotted are rejected at validation,
// as are shapeless checkpoint configs.
func TestCheckpointSpecValidate(t *testing.T) {
	for _, algo := range []string{"count", "churn"} {
		s := gnpSpec(algo)
		if algo == "churn" {
			s.Churn = &ChurnSpec{Workload: "flip", BatchSize: 8, Epochs: 3}
		}
		s.Checkpoint = &CheckpointSpec{Every: 4, Dir: t.TempDir()}
		if err := s.Validate(); !errors.Is(err, ErrNotCheckpointable) {
			t.Errorf("%s: err %v, want ErrNotCheckpointable", algo, err)
		}
	}
	noDir := gnpSpec("list")
	noDir.Checkpoint = &CheckpointSpec{Every: 4}
	if err := noDir.Validate(); err == nil {
		t.Error("checkpoint spec without a directory validated")
	}
	negative := gnpSpec("list")
	negative.Checkpoint = &CheckpointSpec{Every: -1, Dir: t.TempDir()}
	if err := negative.Validate(); err == nil {
		t.Error("negative checkpoint cadence validated")
	}
}

// TestSpecHashPlacementInvariance: the checkpoint identity ignores
// placement (Shards), the ignored Parallel field and the checkpoint config
// itself — those may
// legally differ between the saving and the resuming run — but pins
// everything that changes the bits of the run.
func TestSpecHashPlacementInvariance(t *testing.T) {
	base := gnpSpec("list")
	h := base.SpecHash()
	moved := base
	moved.Parallel = true
	moved.Shards = 4
	moved.Checkpoint = &CheckpointSpec{Every: 8, Dir: "/elsewhere", Resume: true}
	if moved.SpecHash() != h {
		t.Error("placement/checkpoint fields changed the spec hash")
	}
	for name, mut := range map[string]func(*JobSpec){
		"seed":      func(s *JobSpec) { s.Seed++ },
		"algo":      func(s *JobSpec) { s.Algo = "find" },
		"bandwidth": func(s *JobSpec) { s.Bandwidth = 4 },
		"graph":     func(s *JobSpec) { s.Graph.Seed++ },
	} {
		s := base
		mut(&s)
		if s.SpecHash() == h {
			t.Errorf("%s change did not change the spec hash", name)
		}
	}
}

// cancelRun runs spec on s until exactly cut rounds executed, cancelling
// at the round boundary (cut 0 cancels before the first round). It returns
// the prefix recorder.
func cancelRun(t *testing.T, s *Session, spec JobSpec, cut int) *recorder {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &recorder{}
	if cut == 0 {
		cancel()
	} else {
		rec.onRound = func(round int) {
			if round == cut-1 {
				cancel()
			}
		}
	}
	res, err := s.RunObserved(ctx, spec, rec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cut %d: err %v", cut, err)
	}
	if res.Meta.ExecutedRounds != cut || !res.Meta.Cancelled {
		t.Fatalf("cut %d: executed %d rounds, cancelled=%v", cut, res.Meta.ExecutedRounds, res.Meta.Cancelled)
	}
	return rec
}

// TestCutAndResumeAllAlgos is the subsystem's correctness spine: for every
// snapshottable algorithm family, a run cut at round k and resumed from its
// checkpoint produces a Result deeply equal to the straight-through run,
// and the resumed observation stream is exactly the suffix the cancelled
// run did not deliver.
func TestCutAndResumeAllAlgos(t *testing.T) {
	algos := []string{"list", "find", "a1", "a2", "a3", "axr", "tester", "dolev", "bcast-twohop"}
	for _, algo := range algos {
		t.Run(algo, func(t *testing.T) {
			straight := ckptSpec(algo, t.TempDir(), 4)
			full := &recorder{}
			want, err := RunObserved(context.Background(), straight, full)
			if err != nil {
				t.Fatal(err)
			}
			total := want.Meta.ExecutedRounds
			if total < 4 {
				t.Fatalf("run too short to cut: %d rounds", total)
			}
			cuts := []int{0, 1, total / 3, total / 2, total - 2}
			slices.Sort(cuts)
			cuts = slices.Compact(cuts)
			for _, cut := range cuts {
				dir := t.TempDir()
				spec := ckptSpec(algo, dir, 4)
				prefix := cancelRun(t, NewSession(), spec, cut)

				spec.Checkpoint.Resume = true
				suffix := &recorder{}
				got, err := RunObserved(context.Background(), spec, suffix)
				if err != nil {
					t.Fatalf("cut %d: resume: %v", cut, err)
				}
				// The cancellation boundary is always persisted, so the resume
				// continues at exactly cut; its stream is the missing suffix.
				if !slices.Equal(suffix.rounds, full.rounds[cut:]) {
					t.Fatalf("cut %d: resumed round deltas are not the straight run's suffix", cut)
				}
				joined := append(slices.Clone(prefix.triangles), suffix.triangles...)
				if !slices.Equal(joined, full.triangles) {
					t.Fatalf("cut %d: prefix+suffix triangle stream (%d+%d) differs from straight run (%d)",
						cut, len(prefix.triangles), len(suffix.triangles), len(full.triangles))
				}
				// The materialized Result matches bit for bit once the only
				// declared difference — the checkpoint directory — is dropped.
				got.Meta.Checkpoint.Dir = want.Meta.Checkpoint.Dir
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: resumed result diverges\ngot:  %+v\nwant: %+v", cut, got, want)
				}
			}
		})
	}
}

// TestCutAndResumePlacementMigration: a checkpoint written by one engine
// layout restores under any other — four shards to the one-shard plan and
// back, and, on a graph above the placement threshold, a session-placed
// run to one pinned at one shard and back — with the straight-through
// Result. Each checkpoint records the shard count its run was placed at.
func TestCutAndResumePlacementMigration(t *testing.T) {
	type job struct {
		spec func(dir string) JobSpec
		want Result // the straight-through run
	}
	small := &job{spec: func(dir string) JobSpec { return ckptSpec("list", dir, 4) }}
	big := &job{spec: func(dir string) JobSpec {
		return JobSpec{Graph: bigGraph, Algo: "twohop", Seed: 7, Checkpoint: &CheckpointSpec{Every: 4, Dir: dir}}
	}}
	for _, j := range []*job{small, big} {
		var err error
		if j.want, err = Run(context.Background(), j.spec(t.TempDir())); err != nil {
			t.Fatal(err)
		}
	}
	// shards0 and shards1 pin the saving and the resuming session; 0
	// leaves the job to the session's placement.
	layouts := []struct {
		name             string
		job              *job
		shards0, shards1 int
	}{
		{"sharded-to-serial", small, 4, 0},
		{"serial-to-sharded", small, 0, 4},
		{"auto-to-one-shard", big, 0, 1},
		{"one-shard-to-auto", big, 1, 0},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			want := lay.job.want
			cut := want.Meta.ExecutedRounds / 3

			dir := t.TempDir()
			saver := lay.job.spec(dir)
			cancelRun(t, pinnedSession(lay.shards0), saver, cut)
			g, err := LoadGraph(saver.Graph)
			if err != nil {
				t.Fatal(err)
			}
			ck, _, err := checkpoint.Nearest(dir, saver.SpecHash(), math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			placed := lay.shards0
			if placed == 0 {
				placed = placeShards(g.N()+2*g.M(), runtime.GOMAXPROCS(0))
			}
			if ck.Meta.Shards != placed {
				t.Errorf("checkpoint records %d shards, the saver was placed at %d", ck.Meta.Shards, placed)
			}

			resumer := lay.job.spec(dir)
			resumer.Checkpoint.Resume = true
			got, err := pinnedSession(lay.shards1).Run(context.Background(), resumer)
			if err != nil {
				t.Fatal(err)
			}
			// The directory is the one declared difference; everything else
			// must match bit for bit.
			got.Meta.Checkpoint.Dir = want.Meta.Checkpoint.Dir
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("migrated resume diverges\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// evt is one observation event; evtRec records the interleaved stream with
// each event attributed to a round: a triangle to the round it surfaced in
// (triangle events arrive while a round is executing, before that round's
// OnRound), a segment to its start round and a fault to its own round.
type evt struct {
	kind  string
	round int
	node  int
	tri   Triangle
	d     RoundDelta
	seg   SegmentInfo
	fault FaultEvent
}

type evtRec struct {
	base   int // round number the stream starts at
	rounds int
	events []evt
}

func (r *evtRec) OnSegment(seg SegmentInfo) {
	r.events = append(r.events, evt{kind: "seg", round: seg.StartRound, seg: seg})
}
func (r *evtRec) OnRound(round int, d RoundDelta) {
	r.rounds++
	r.events = append(r.events, evt{kind: "round", round: round, d: d})
}
func (r *evtRec) OnTriangle(node int, t Triangle) {
	r.events = append(r.events, evt{kind: "tri", round: r.base + r.rounds, node: node, tri: t})
}
func (r *evtRec) OnFault(ev FaultEvent) {
	r.events = append(r.events, evt{kind: "fault", round: ev.Round, fault: ev})
}

// window returns the events of rounds [from, to].
func (r *evtRec) window(from, to int) []evt {
	var out []evt
	for _, e := range r.events {
		if e.round >= from && e.round <= to {
			out = append(out, e)
		}
	}
	return out
}

// hasKind reports whether evs holds an event of the given kind.
func hasKind(evs []evt, kind string) bool {
	return slices.ContainsFunc(evs, func(e evt) bool { return e.kind == kind })
}

// replayWindow replays [from, to] of spec's checkpointed run and requires
// the stream to equal full's window of the same rounds.
func replayWindow(t *testing.T, sess *Session, spec JobSpec, full *evtRec, from, to int) ReplayInfo {
	t.Helper()
	rep := &evtRec{base: from}
	info, err := sess.Replay(spec, from, to, rep)
	if err != nil {
		t.Fatalf("replay [%d, %d]: %v", from, to, err)
	}
	if want := full.window(from, to); !reflect.DeepEqual(rep.events, want) {
		t.Fatalf("replay [%d, %d] from round %d: %d events differ from the straight run's %d",
			from, to, info.CheckpointRound, len(rep.events), len(want))
	}
	return info
}

// TestSessionReplayWindow: Replay re-derives the exact observation stream
// of any round window from the nearest checkpoint, without touching rounds
// before the anchor, and fails closed on bad windows and identities.
func TestSessionReplayWindow(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec("find", dir, 4)
	full := &evtRec{}
	res, err := RunObserved(context.Background(), spec, full)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Meta.ExecutedRounds
	if total < 12 {
		t.Fatalf("run too short: %d rounds", total)
	}
	from, to := total/3, total/2
	sess := NewSession()
	info := replayWindow(t, sess, spec, full, from, to)
	if info.From != from || info.To != to || info.CheckpointRound > from {
		t.Fatalf("replay info %+v for window [%d, %d]", info, from, to)
	}
	if info.ReplayedRounds != to+1-info.CheckpointRound {
		t.Fatalf("replay executed %d rounds from round %d, want %d", info.ReplayedRounds, info.CheckpointRound, to+1-info.CheckpointRound)
	}

	// Bad windows and identities fail closed.
	if _, err := sess.Replay(spec, to, from, nil); err == nil {
		t.Error("empty window accepted")
	}
	plain := gnpSpec("find")
	if _, err := sess.Replay(plain, from, to, nil); err == nil {
		t.Error("replay without a checkpoint spec accepted")
	}
	// With no checkpoint of the spec's identity, a replay is a cold start
	// from round 0: still the straight run's window, never another
	// identity's checkpoint.
	cold := ckptSpec("find", t.TempDir(), 4)
	if info := replayWindow(t, sess, cold, full, from, to); info.CheckpointRound != 0 || info.ReplayedRounds != to+1 {
		t.Errorf("replay against an empty directory: %+v", info)
	}
	other := spec
	other.Seed++
	if info, err := sess.Replay(other, from, to, nil); err != nil || info.CheckpointRound != 0 {
		t.Errorf("replay under a different spec identity: %+v, err %v", info, err)
	}
}

// TestReplayBeforeFirstCheckpoint: a window that starts before the first
// periodic save replays from a cold start at round 0, segment events
// included, instead of failing for want of a checkpoint.
func TestReplayBeforeFirstCheckpoint(t *testing.T) {
	spec := ckptSpec("find", t.TempDir(), 4)
	full := &evtRec{}
	if _, err := RunObserved(context.Background(), spec, full); err != nil {
		t.Fatal(err)
	}
	info := replayWindow(t, NewSession(), spec, full, 0, 5)
	if info.CheckpointRound != 0 || info.ReplayedRounds != 6 {
		t.Fatalf("replay info %+v for window [0, 5]", info)
	}
	if len(full.window(0, 5)) == 0 || full.window(0, 5)[0].kind != "seg" {
		t.Fatal("window [0, 5] of the straight run does not open with a segment event")
	}
}

// TestUnobservedCheckpointReplayAndResume checkpoints a job run with no
// observer, as triserve runs every job, and then observes it from those
// checkpoints: two Replay windows and a resume must stream exactly what a
// straight observed run streams over the same rounds. Each snapshot records
// how many of every node's outputs were already streamed; an unobserved
// run must advance that mark too, or everything output before the
// checkpoint streams again after it.
func TestUnobservedCheckpointReplayAndResume(t *testing.T) {
	full := &evtRec{}
	want, err := RunObserved(context.Background(), ckptSpec("find", t.TempDir(), 4), full)
	if err != nil {
		t.Fatal(err)
	}
	total := want.Meta.ExecutedRounds
	if total < 24 {
		t.Fatalf("run too short: %d rounds", total)
	}

	dir := t.TempDir()
	spec := ckptSpec("find", dir, 4)
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	hash := spec.SpecHash()
	rounds := checkpoint.Rounds(dir, hash)
	if len(rounds) < 4 {
		t.Fatalf("unobserved run left %d checkpoints", len(rounds))
	}

	sess := NewSession()
	for _, w := range [][2]int{{total / 4, total / 3}, {total/2 + 1, 3 * total / 4}} {
		replayWindow(t, sess, spec, full, w[0], w[1])
	}

	// Drop every checkpoint after the middle one, as if the job had been
	// killed there, and resume it observed.
	cut := rounds[len(rounds)/2]
	for _, r := range rounds {
		if r > cut {
			if err := os.Remove(filepath.Join(dir, checkpoint.FileName(hash, r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec.Checkpoint.Resume = true
	suffix := &evtRec{base: cut}
	got, err := RunObserved(context.Background(), spec, suffix)
	if err != nil {
		t.Fatal(err)
	}
	if w := full.window(cut, total); !reflect.DeepEqual(suffix.events, w) {
		t.Fatalf("resume at %d: %d events, straight run's suffix has %d", cut, len(suffix.events), len(w))
	}
	got.Meta.Checkpoint.Dir = want.Meta.Checkpoint.Dir
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result diverges\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestReplayFaultyWindows: a replay of a faulty job streams the fault
// events of its window along with the rest. The crash of node 3 at round
// 10 falls inside [9, 12], and the mid-run window spans segment starts, so
// both windows compare crash and segment events as well as rounds and
// triangles.
func TestReplayFaultyWindows(t *testing.T) {
	spec := ckptSpec("find", t.TempDir(), 4)
	spec.Faults = &FaultSpec{Seed: 11, Crashes: []FaultCrash{{Node: 3, Round: 10}}, Loss: 0.1}
	full := &evtRec{}
	res, err := RunObserved(context.Background(), spec, full)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Meta.ExecutedRounds
	if total < 24 {
		t.Fatalf("run too short: %d rounds", total)
	}
	if w := full.window(9, 12); !slices.Contains(w, evt{kind: "fault", round: 10, fault: FaultEvent{Kind: "crash", Node: 3, Round: 10}}) {
		t.Fatalf("straight run's window [9, 12] has no crash of node 3: %+v", w)
	}
	if !hasKind(full.window(total/3, total/2), "seg") {
		t.Fatalf("window [%d, %d] starts no segment", total/3, total/2)
	}
	sess := NewSession()
	replayWindow(t, sess, spec, full, 9, 12)
	replayWindow(t, sess, spec, full, total/3, total/2)
}

// TestReplayPastPlanEnd: a window that runs past the end of the plan
// replays up to the last scheduled round and equals the straight run's
// tail, the last segment's start included.
func TestReplayPastPlanEnd(t *testing.T) {
	spec := ckptSpec("find", t.TempDir(), 4)
	full := &evtRec{}
	res, err := RunObserved(context.Background(), spec, full)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Meta.ExecutedRounds
	segs := res.Meta.Segments
	from := total - segs[len(segs)-1].Rounds - 2
	if !hasKind(full.window(from, total), "seg") {
		t.Fatalf("window [%d, %d] starts no segment", from, total)
	}
	info := replayWindow(t, NewSession(), spec, full, from, total+5)
	if info.ReplayedRounds != total-info.CheckpointRound {
		t.Fatalf("replay executed %d rounds from round %d, the plan ends at %d", info.ReplayedRounds, info.CheckpointRound, total)
	}
}

// TestReplayWholeTail: replaying from a checkpoint's own round to the end
// equals the straight run's whole suffix from that round, and a second
// replay on the session's pooled engine streams it again bit for bit.
func TestReplayWholeTail(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec("find", dir, 4)
	full := &evtRec{}
	res, err := RunObserved(context.Background(), spec, full)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Meta.ExecutedRounds
	rounds := checkpoint.Rounds(dir, spec.SpecHash())
	if len(rounds) < 4 {
		t.Fatalf("run left %d checkpoints", len(rounds))
	}
	anchor := rounds[len(rounds)/2]
	if !hasKind(full.window(anchor, total), "seg") {
		t.Fatalf("suffix from round %d starts no segment", anchor)
	}
	sess := NewSession()
	for range 2 {
		info := replayWindow(t, sess, spec, full, anchor, total)
		if info.CheckpointRound != anchor || info.ReplayedRounds != total-anchor {
			t.Fatalf("replay info %+v, want anchor %d and %d rounds", info, anchor, total-anchor)
		}
	}
}

// cancelJobAt cancels job j at the round boundary after cut executed
// rounds, synchronizing the handle hand-off with the worker goroutine.
type cancelJobAt struct {
	recorder
	jc   chan *Job
	once sync.Once
}

func newCancelJobAt(cut int) *cancelJobAt {
	c := &cancelJobAt{jc: make(chan *Job, 1)}
	c.onRound = func(round int) {
		if round == cut-1 {
			c.once.Do(func() { (<-c.jc).Cancel() })
		}
	}
	return c
}

// TestServiceCheckpointResumeByteIdentical is the preemption contract: a
// service job cancelled mid-run and resubmitted with Resume returns a
// Result byte-identical (as JSON) to the straight-through run.
func TestServiceCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec("find", dir, 2)
	svc := NewService()
	defer svc.Close()

	obs := newCancelJobAt(5)
	j, err := svc.SubmitObserved(spec, obs)
	if err != nil {
		t.Fatal(err)
	}
	obs.jc <- j
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("preempted job err %v", err)
	}
	if j.Status() != JobCancelled {
		t.Fatalf("preempted job status %s", j.Status())
	}

	resumed := spec
	resumed.Checkpoint = &CheckpointSpec{Every: 2, Dir: dir, Resume: true}
	j2, err := svc.Submit(resumed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Straight through into the same directory (checkpoint files are
	// deterministic, so re-saving is idempotent): the wire forms must match
	// byte for byte.
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("resumed result not byte-identical\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestEvictionListsNoCheckpoints: whether a finished job holds checkpoint
// files is decided once, when it ends or is recovered from the journal, so
// a submit that runs eviction past the history budget lists no checkpoint
// directory under the service lock, however many checkpoint-holding jobs
// it walks past — and none of those jobs is evicted, before or after a
// restart.
func TestEvictionListsNoCheckpoints(t *testing.T) {
	var listings atomic.Int64
	list := listCheckpoints
	listCheckpoints = func(dir, specHash string) []int {
		listings.Add(1)
		return list(dir, specHash)
	}
	t.Cleanup(func() { listCheckpoints = list })

	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	svc, err := OpenService(WithJournal(jpath), WithJobHistory(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var holders []string
	for seed := int64(0); seed < 3; seed++ {
		spec := ckptSpec("find", dir, 2)
		spec.Seed = seed
		obs := newCancelJobAt(5)
		holder, err := svc.SubmitObserved(spec, obs)
		if err != nil {
			t.Fatal(err)
		}
		obs.jc <- holder
		if _, err := holder.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("holder err %v", err)
		}
		holders = append(holders, holder.ID())
	}
	plain := gnpSpec("find")
	plain.Verify = VerifyNone
	submitPlain := func(svc *Service) {
		t.Helper()
		for i := 0; i < 3; i++ {
			before := listings.Load()
			j, err := svc.Submit(plain)
			if err != nil {
				t.Fatal(err)
			}
			if got := listings.Load() - before; got != 0 {
				t.Fatalf("submit %d past the history budget listed checkpoints %d times", i, got)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range holders {
			if _, ok := svc.Job(id); !ok {
				t.Fatalf("checkpoint-holding job %s was evicted", id)
			}
		}
	}
	submitPlain(svc)
	svc.Close()
	svc, err = OpenService(WithJournal(jpath), WithJobHistory(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	submitPlain(svc)
}

// TestServiceEvictionProtectsCheckpointHolders: history eviction never
// drops a job whose checkpoint files are still on disk — the job entry is
// their only API-reachable owner — and Delete both forgets the job and
// reaps the files.
func TestServiceEvictionProtectsCheckpointHolders(t *testing.T) {
	svc := NewService(WithJobHistory(1))
	defer svc.Close()
	dir := t.TempDir()
	spec := ckptSpec("find", dir, 2)

	obs := newCancelJobAt(5)
	holder, err := svc.SubmitObserved(spec, obs)
	if err != nil {
		t.Fatal(err)
	}
	obs.jc <- holder
	if _, err := holder.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("holder err %v", err)
	}
	hash := spec.SpecHash()
	if len(checkpoint.Rounds(dir, hash)) == 0 {
		t.Fatal("cancelled job left no checkpoint files")
	}

	// Push enough plain jobs through to evict everything evictable.
	plain := gnpSpec("find")
	plain.Verify = VerifyNone
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(plain)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := svc.Job(holder.ID()); !ok {
		t.Fatal("checkpoint-holding job was evicted")
	}

	if err := svc.Delete(holder.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Job(holder.ID()); ok {
		t.Fatal("deleted job still reachable")
	}
	if len(checkpoint.Rounds(dir, hash)) > 0 {
		t.Fatal("delete did not reap the checkpoint files")
	}
	if err := svc.Delete("job-nope"); err == nil {
		t.Fatal("deleting an unknown job succeeded")
	}
}

// TestResumeAtSegmentBoundary resumes find and list from a periodic
// checkpoint taken exactly at a segment boundary: the end of the first
// A3 segment, where the next A1 or A2 segment begins. That checkpoint must
// record the next segment's handlers, which is what the resume binds and
// restores into. With a delay plan, words sent in the A3 segment are still
// queued at the boundary and arrive in the next segment.
func TestResumeAtSegmentBoundary(t *testing.T) {
	for _, algo := range []string{"find", "list"} {
		for _, delayed := range []bool{false, true} {
			name := algo
			if delayed {
				name += "/delay"
			}
			t.Run(name, func(t *testing.T) {
				spec := gnpSpec(algo)
				if delayed {
					spec.Faults = &FaultSpec{Seed: 5, DelayMax: 3}
				}
				plain, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				segs := plain.Meta.Segments
				if len(segs) < 3 {
					t.Fatalf("%d segments, want a boundary after the first A3 segment", len(segs))
				}
				boundary := segs[0].Rounds + segs[1].Rounds

				dir := t.TempDir()
				spec.Checkpoint = &CheckpointSpec{Every: boundary, Dir: dir}
				full := &recorder{}
				want, err := RunObserved(context.Background(), spec, full)
				if err != nil {
					t.Fatal(err)
				}
				if crossed := full.rounds[boundary].Words > 0; crossed != delayed {
					t.Fatalf("words delivered in the boundary round: %v, want %v", crossed, delayed)
				}
				rounds := checkpoint.Rounds(dir, spec.SpecHash())
				if !slices.Contains(rounds, boundary) {
					t.Fatalf("no checkpoint at the segment boundary %d: have %v", boundary, rounds)
				}
				for _, r := range rounds {
					if r > boundary {
						if err := os.Remove(filepath.Join(dir, checkpoint.FileName(spec.SpecHash(), r))); err != nil {
							t.Fatal(err)
						}
					}
				}

				spec.Checkpoint.Resume = true
				suffix := &recorder{}
				got, err := RunObserved(context.Background(), spec, suffix)
				if err != nil {
					t.Fatalf("resume at round %d: %v", boundary, err)
				}
				if len(suffix.segments) == 0 || suffix.segments[0].StartRound != boundary {
					t.Fatalf("resumed run announced segments %+v, want the one starting at round %d first", suffix.segments, boundary)
				}
				if !slices.Equal(suffix.rounds, full.rounds[boundary:]) {
					t.Fatal("resumed round deltas are not the straight run's suffix")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed result diverges\ngot:  %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}
