package congest

import (
	"context"
	"reflect"
	"slices"
	"testing"
)

// faultySpec is gnpSpec with a representative fault plan: a crash, loss,
// duplication, a seeded delay distribution and one pinned link.
func faultySpec(algo string) JobSpec {
	s := gnpSpec(algo)
	s.Faults = &FaultSpec{
		Seed:       11,
		Crashes:    []FaultCrash{{Node: 3, Round: 5}},
		Loss:       0.1,
		Dup:        0.05,
		DelayMax:   2,
		DelayLinks: []FaultLink{{From: 0, To: 1, K: 4}},
	}
	return s
}

// TestFaultSpecValidate pins the shape rules: fault plans are rejected
// for the non-engine jobs and for out-of-range rates.
func TestFaultSpecValidate(t *testing.T) {
	for _, algo := range []string{"count", "churn"} {
		s := gnpSpec(algo)
		if algo == "churn" {
			s.Churn = &ChurnSpec{Workload: "flip", BatchSize: 8, Epochs: 3}
		}
		s.Faults = &FaultSpec{Loss: 0.1}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: fault spec validated", algo)
		}
	}
	bad := gnpSpec("list")
	bad.Faults = &FaultSpec{Loss: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("loss rate 1.5 validated")
	}
	bad.Faults = &FaultSpec{DelayMax: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative delayMax validated")
	}
	if err := faultySpec("list").Validate(); err != nil {
		t.Errorf("good faulty spec rejected: %v", err)
	}
}

// TestRunFaultyJob: a faulty job runs through the facade, reports its
// fault provenance and counters, and stays deterministic — including
// through a Session's pooled engines (a rewind must clear the fault
// runtime).
func TestRunFaultyJob(t *testing.T) {
	spec := faultySpec("list")
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Faults == nil || a.Meta.Faults.Hash == "" {
		t.Fatal("faulty result carries no fault provenance")
	}
	if a.Meta.Faults.Crashes != 1 || a.Meta.Faults.DelayMax != 2 {
		t.Fatalf("fault summary %+v does not echo the plan", a.Meta.Faults)
	}
	if a.Metrics.Faults == nil {
		t.Fatal("faulty result carries no fault counters")
	}
	if a.Metrics.Faults.NodesCrashed != 1 {
		t.Fatalf("NodesCrashed = %d, want 1", a.Metrics.Faults.NodesCrashed)
	}
	if a.Metrics.Faults.DelayedDeliveries == 0 {
		t.Fatal("pinned 4-round link produced no delayed deliveries")
	}
	// Determinism: one-shot vs session-pooled (twice, to hit the rewind
	// of a pooled engine carrying fault runtime).
	sess := NewSession()
	b, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sess.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(b, c) {
		t.Fatal("faulty job not deterministic across one-shot and pooled runs")
	}
	// Fault-free results must not grow the new fields.
	clean, err := Run(context.Background(), gnpSpec("list"))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Meta.Faults != nil || clean.Metrics.Faults != nil {
		t.Fatal("fault-free result carries fault fields")
	}
}

// TestSessionPoolFaultIsolation: interleaving faulty and fault-free jobs
// over one Session must not let pooled engines leak a fault plan across
// jobs — the runner key includes the plan fingerprint.
func TestSessionPoolFaultIsolation(t *testing.T) {
	sess := NewSession()
	clean1, err := sess.Run(context.Background(), gnpSpec("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), faultySpec("a1")); err != nil {
		t.Fatal(err)
	}
	clean2, err := sess.Run(context.Background(), gnpSpec("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean1, clean2) {
		t.Fatal("fault-free job changed after a faulty job shared the session")
	}
	fresh, err := Run(context.Background(), gnpSpec("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean1, fresh) {
		t.Fatal("session-pooled fault-free job diverges from a fresh run")
	}
}

// faultRecorder is a recorder that also collects the fault stream.
type faultRecorder struct {
	recorder
	faults []FaultEvent
}

func (r *faultRecorder) OnFault(ev FaultEvent) { r.faults = append(r.faults, ev) }

// TestFaultObserverStream: observers opting into FaultObserver receive
// the crash events deterministically; plain observers are unaffected.
func TestFaultObserverStream(t *testing.T) {
	spec := faultySpec("a1")
	run := func() *faultRecorder {
		rec := &faultRecorder{}
		if _, err := RunObserved(context.Background(), spec, rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	a, b := run(), run()
	want := []FaultEvent{{Kind: "crash", Node: 3, Round: 5}}
	if !reflect.DeepEqual(a.faults, want) {
		t.Fatalf("fault stream %+v, want %+v", a.faults, want)
	}
	if !reflect.DeepEqual(a.faults, b.faults) || !slices.Equal(a.rounds, b.rounds) {
		t.Fatal("observed faulty runs diverge")
	}
	// A plain observer on the same job still works (no fault callbacks).
	plain := &recorder{}
	if _, err := RunObserved(context.Background(), spec, plain); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plain.rounds, a.rounds) {
		t.Fatal("plain observer sees a different round stream")
	}
}

// TestFaultyCutAndResume is the subsystem's checkpoint contract at the
// facade level: a faulty job cut at round k and resumed from its
// checkpoint — crash already applied or still pending, delay windows
// armed across the cut — produces a Result deeply equal to the
// straight-through faulty run.
func TestFaultyCutAndResume(t *testing.T) {
	for _, algo := range []string{"list", "a1", "dolev", "bcast-twohop"} {
		t.Run(algo, func(t *testing.T) {
			straight := faultySpec(algo)
			straight.Checkpoint = &CheckpointSpec{Every: 4, Dir: t.TempDir()}
			want, err := Run(context.Background(), straight)
			if err != nil {
				t.Fatal(err)
			}
			total := want.Meta.ExecutedRounds
			if total < 4 {
				t.Fatalf("run too short to cut: %d rounds", total)
			}
			// Cut before the crash round (5), right after it, and mid-run,
			// keeping every cut strictly inside the run.
			cuts := []int{2, 6, total / 2}
			slices.Sort(cuts)
			cuts = slices.Compact(cuts)
			cuts = slices.DeleteFunc(cuts, func(c int) bool { return c < 1 || c >= total })
			for _, cut := range cuts {
				dir := t.TempDir()
				spec := faultySpec(algo)
				spec.Checkpoint = &CheckpointSpec{Every: 4, Dir: dir}
				cancelRun(t, NewSession(), spec, cut)

				spec.Checkpoint.Resume = true
				got, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("cut %d: resume: %v", cut, err)
				}
				got.Meta.Checkpoint.Dir = want.Meta.Checkpoint.Dir
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cut %d: resumed faulty result diverges\ngot:  %+v\nwant: %+v", cut, got, want)
				}
			}
		})
	}
}

// TestFaultyCheckpointPlanMismatch: a checkpoint written under one fault
// plan must not resume a job with a different plan (or none) — the spec
// hash covers the plan, so the resume simply finds no checkpoint.
func TestFaultyCheckpointPlanMismatch(t *testing.T) {
	dir := t.TempDir()
	saver := faultySpec("a1")
	saver.Checkpoint = &CheckpointSpec{Every: 4, Dir: dir}
	cancelRun(t, NewSession(), saver, 6)

	other := faultySpec("a1")
	other.Faults.Seed++
	other.Checkpoint = &CheckpointSpec{Every: 4, Dir: dir, Resume: true}
	if saver.SpecHash() == other.SpecHash() {
		t.Fatal("different fault plans share a spec hash")
	}
	// The mismatched resume cold-starts (no compatible checkpoint) and
	// must still complete correctly.
	res, err := Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.Cancelled {
		t.Fatal("cold-started run marked cancelled")
	}
}

// TestFaultyParallelShardParity: the facade-level determinism matrix —
// the faulty job's Result is bit-identical at every shard count the
// session is pinned to, and the ignored Parallel field changes nothing
// but its own echo in the meta.
func TestFaultyParallelShardParity(t *testing.T) {
	base := faultySpec("list")
	want, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []struct {
		parallel bool
		shards   int
	}{{true, 0}, {false, 2}, {false, 4}, {true, 7}} {
		spec := base
		spec.Parallel = alt.parallel
		got, err := pinnedSession(alt.shards).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Meta.Parallel != alt.parallel {
			t.Fatalf("par=%v: meta echoes parallel=%v", alt.parallel, got.Meta.Parallel)
		}
		got.Meta.Parallel = want.Meta.Parallel
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%v shards=%d: faulty result diverges", alt.parallel, alt.shards)
		}
	}
}

// TestFaultSpecUnknownFieldRejected keeps the strict-decoding contract on
// the new nested object.
func TestFaultSpecUnknownFieldRejected(t *testing.T) {
	blob := []byte(`{"graph": {"generator": "gnp", "n": 8}, "algo": "list", "faults": {"los": 0.5}}`)
	if _, err := ParseJobSpec(blob); err == nil {
		t.Fatal("misspelled fault field accepted")
	}
}
