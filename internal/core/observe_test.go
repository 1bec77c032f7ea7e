package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// perNode records a run's OnTriangle stream split by node, and the round
// each output surfaced in.
type perNode struct {
	outs    [][]graph.Triangle
	rounds  int   // OnRound calls so far
	at      []int // round of every output, in stream order
	onRound func(round int)
}

func (p *perNode) OnSegment(core.SegmentInfo) {}
func (p *perNode) OnRound(round int, _ sim.RoundDelta) {
	p.rounds++
	if p.onRound != nil {
		p.onRound(round)
	}
}
func (p *perNode) OnTriangle(node int, t graph.Triangle) {
	p.outs[node] = append(p.outs[node], t)
	p.at = append(p.at, p.rounds)
}

// checkOutputs asserts that res holds exactly what the streams delivered:
// Outputs[v] is node v's OnTriangle sequence across the streams, in order,
// and Union is the set of all of them.
func checkOutputs(t *testing.T, name string, res core.Result, streams ...*perNode) {
	t.Helper()
	union := make(graph.TriangleSet)
	for v, got := range res.Outputs {
		var want []graph.Triangle
		for _, s := range streams {
			want = append(want, s.outs[v]...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: node %d Result.Outputs has %d outputs, its stream %d", name, v, len(got), len(want))
		}
		for _, tr := range want {
			union.Add(tr)
		}
	}
	if !reflect.DeepEqual(res.Union, union) {
		t.Fatalf("%s: Result.Union has %d triangles, the streams %d", name, len(res.Union), len(union))
	}
}

// TestResultOutputsMatchStream pins Result.Outputs and Result.Union to the
// observed per-node stream for a lister and a finder, each run straight
// through, cancelled in the middle of a segment, and resumed from the
// checkpoint that cancellation persisted.
func TestResultOutputsMatchStream(t *testing.T) {
	g := graph.Gnp(28, 0.5, rand.New(rand.NewSource(9)))
	lister, err := core.NewLister(g.N(), 2, core.ListerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	finder, err := core.NewFinder(g.N(), 2, core.FinderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 5}
	for name, segs := range map[string][]core.Segment{"lister": lister, "finder": finder} {
		t.Run(name, func(t *testing.T) {
			c := core.NewEngineCache()
			newStream := func() *perNode { return &perNode{outs: make([][]graph.Triangle, g.N())} }

			straight := newStream()
			full, err := c.Run(context.Background(), g, segs, cfg, straight, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkOutputs(t, "straight", full, straight)

			// Cut one round after the median output, moved off a segment
			// boundary, so both halves of the run have outputs.
			cut := straight.at[len(straight.at)/2] + 1
			var start, end int
			for _, sp := range core.Plan(segs) {
				start, end = end, end+sp.Rounds
				if cut < end {
					break
				}
			}
			if cut == start {
				cut++
			}
			if cut <= start || cut >= end || cut > straight.at[len(straight.at)-1] {
				t.Fatalf("cut %d is not inside segment [%d, %d) with outputs after it", cut, start, end)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			prefix := newStream()
			prefix.onRound = func(round int) {
				if round == cut-1 {
					cancel()
				}
			}
			var saved *core.ResumePoint
			ckpt := &core.CheckpointPlan{Save: func(round int, payload []byte) error {
				saved = &core.ResumePoint{Round: round, Payload: payload}
				return nil
			}}
			part, err := c.Run(ctx, g, segs, cfg, prefix, ckpt)
			if !errors.Is(err, context.Canceled) || part.Meta.ExecutedRounds != cut {
				t.Fatalf("cancelled run: err %v after %d rounds, want cancellation after %d", err, part.Meta.ExecutedRounds, cut)
			}
			checkOutputs(t, "cancelled", part, prefix)
			if saved == nil || saved.Round != cut {
				t.Fatalf("cancellation persisted %+v, want a checkpoint at round %d", saved, cut)
			}

			suffix := newStream()
			resumed, err := c.Run(context.Background(), g, segs, cfg, suffix, &core.CheckpointPlan{Resume: saved})
			if err != nil {
				t.Fatal(err)
			}
			checkOutputs(t, "resumed", resumed, prefix, suffix)
			if !reflect.DeepEqual(resumed, full) {
				t.Fatal("resumed Result diverges from the straight run")
			}
		})
	}
}
