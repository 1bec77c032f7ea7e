package congest

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// recorder captures the observation stream.
type recorder struct {
	segments  []SegmentInfo
	rounds    []RoundDelta
	triangles []Triangle
	nodes     []int
	// onRound/onSegment, when set, fire after recording (the cancellation
	// triggers for the determinism tests).
	onRound   func(round int)
	onSegment func(index int)
}

func (r *recorder) OnSegment(seg SegmentInfo) {
	r.segments = append(r.segments, seg)
	if r.onSegment != nil {
		r.onSegment(seg.Index)
	}
}
func (r *recorder) OnRound(round int, d RoundDelta) {
	r.rounds = append(r.rounds, d)
	if r.onRound != nil {
		r.onRound(round)
	}
}
func (r *recorder) OnTriangle(node int, t Triangle) {
	r.nodes = append(r.nodes, node)
	r.triangles = append(r.triangles, t)
}

// TestCancelReturnsDeterministicPrefix is the cancellation contract: a job
// cancelled at round k returns exactly the uncancelled run's state after
// round k — metrics, outputs, and the observation stream are all the
// corresponding prefix.
func TestCancelReturnsDeterministicPrefix(t *testing.T) {
	spec := gnpSpec("find") // multi-segment: cancellation lands mid-sequence
	full := &recorder{}
	fullRes, err := RunObserved(context.Background(), spec, full)
	if err != nil {
		t.Fatal(err)
	}
	total := fullRes.Meta.ExecutedRounds
	if total < 10 || len(full.rounds) != total {
		t.Fatalf("need a long run to cut: %d rounds, %d observed", total, len(full.rounds))
	}
	for _, k := range []int{0, 1, total / 3, total / 2, total - 2} {
		ctx, cancel := context.WithCancel(context.Background())
		part := &recorder{onRound: func(round int) {
			if round == k {
				cancel()
			}
		}}
		res, err := RunObserved(ctx, spec, part)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err %v", k, err)
		}
		// The engine polls the context before each round, so cancelling
		// inside OnRound(k) stops the run after exactly k+1 rounds.
		if got := res.Meta.ExecutedRounds; got != k+1 {
			t.Fatalf("k=%d: executed %d rounds, want %d", k, got, k+1)
		}
		if !res.Meta.Cancelled {
			t.Fatalf("k=%d: result not marked cancelled", k)
		}
		if res.Meta.ScheduledRounds != fullRes.Meta.ScheduledRounds {
			t.Fatalf("k=%d: scheduled rounds drifted", k)
		}
		// The observation stream is the prefix of the full run's.
		if !slices.Equal(part.rounds, full.rounds[:k+1]) {
			t.Fatalf("k=%d: per-round deltas are not the uncancelled prefix", k)
		}
		// Metrics equal the sum of the observed prefix deltas.
		var words, msgs int64
		active := 0
		for _, d := range part.rounds {
			words += d.Words
			msgs += d.Messages
			if d.Moved {
				active++
			}
		}
		m := res.Metrics
		if m.Rounds != k+1 || m.WordsDelivered != words || m.MessagesDelivered != msgs || m.ActiveRounds != active {
			t.Fatalf("k=%d: metrics %+v disagree with observed prefix (words=%d msgs=%d active=%d)",
				k, m, words, msgs, active)
		}
		// Triangles observed so far are a prefix of the full stream, and the
		// partial result holds exactly their union.
		if len(part.triangles) > len(full.triangles) ||
			!slices.Equal(part.triangles, full.triangles[:len(part.triangles)]) {
			t.Fatalf("k=%d: triangle stream is not the uncancelled prefix", k)
		}
		seen := map[Triangle]bool{}
		for _, tr := range part.triangles {
			seen[tr] = true
		}
		if len(seen) != res.TriangleCount {
			t.Fatalf("k=%d: result holds %d distinct triangles, stream had %d", k, res.TriangleCount, len(seen))
		}
		if res.Verify != nil {
			t.Fatalf("k=%d: verification ran on a cancelled job", k)
		}
	}
}

// TestCancelChurnAtEpochBoundary checks churn jobs stop between epochs
// with the prefix's summary.
func TestCancelChurnAtEpochBoundary(t *testing.T) {
	spec := JobSpec{
		Graph: GraphSpec{Generator: "gnm", N: 32, K: 64, Seed: 5},
		Algo:  "churn",
		Seed:  9,
		Churn: &ChurnSpec{Workload: "flip", BatchSize: 16, Epochs: 6},
	}
	full, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cut := 3
	obs := &recorder{}
	obs.onSegment = func(i int) {
		if i == cut {
			cancel()
		}
	}
	res, err := RunObserved(ctx, spec, obs)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}
	if res.Churn.Epochs >= full.Churn.Epochs || !res.Meta.Cancelled {
		t.Fatalf("cancelled churn ran %d of %d epochs, cancelled=%v",
			res.Churn.Epochs, full.Churn.Epochs, res.Meta.Cancelled)
	}
}

// TestCancelBeforeStart returns immediately with an empty prefix.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, gnpSpec("list"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v", err)
	}
	if res.Meta.ExecutedRounds != 0 || res.TriangleCount != 0 {
		t.Fatalf("pre-cancelled run did work: %+v", res.Meta)
	}
}

// TestCountObserved: a count job streams one round event per executed
// round, idle rounds included, like every engine-run job.
func TestCountObserved(t *testing.T) {
	rec := &recorder{}
	res, err := RunObserved(context.Background(), gnpSpec("count"), rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Meta.ExecutedRounds == 0 || len(rec.rounds) != res.Meta.ExecutedRounds {
		t.Fatalf("observed %d round events for %d executed rounds", len(rec.rounds), res.Meta.ExecutedRounds)
	}
	plain, err := Run(context.Background(), gnpSpec("count"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatal("observing a count changed its Result")
	}
}

// TestCountCancelReturnsPrefix: a count cancelled in OnRound(k) returns
// the prefix it ran, like a cancelled a1 job, with no count and no
// verification.
func TestCountCancelReturnsPrefix(t *testing.T) {
	spec := gnpSpec("count")
	full, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	k := full.Meta.ExecutedRounds / 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	part := &recorder{onRound: func(round int) {
		if round == k {
			cancel()
		}
	}}
	res, err := RunObserved(ctx, spec, part)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if !res.Meta.Cancelled || res.Meta.ExecutedRounds != k+1 || res.Metrics.Rounds != k+1 {
		t.Fatalf("cancelled count: cancelled=%v executed=%d metrics.rounds=%d, want true, %d, %d",
			res.Meta.Cancelled, res.Meta.ExecutedRounds, res.Metrics.Rounds, k+1, k+1)
	}
	if res.Meta.Algo != "count" || res.Graph.N != spec.Graph.N {
		t.Fatalf("cancelled count lost its provenance: algo %q, n %d", res.Meta.Algo, res.Graph.N)
	}
	if res.Count != 0 || res.Found || res.Verify != nil {
		t.Fatalf("cancelled count reports count %d, found %v, verify %+v", res.Count, res.Found, res.Verify)
	}
}
