// Package agg provides the classic CONGEST aggregation substrate — BFS
// tree construction plus convergecast — and uses it for exact distributed
// triangle counting.
//
// The paper distinguishes triangle finding, counting and listing: its
// Theorem 3 shows listing is strictly harder than counting in the clique
// (the Censor-Hillel et al. algorithms count). This package supplies the
// CONGEST-side counting construction: every node learns the triangles
// through itself via a two-hop exchange (Theta(d_max) rounds), charges each
// triangle to its minimum vertex, and a BFS convergecast sums the charges
// at a root in O(D) additional rounds. Total: Theta(d_max + D) rounds, and
// the root outputs the exact |T(G)| of its connected component.
//
// Unlike the phase-scheduled algorithms in internal/core, the convergecast
// is data-dependent (a node forwards its subtree sum when the last child
// reports), exercising the engine's quiescence-driven execution style.
package agg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/sim"
)

// Message type tags (first word of every payload).
const (
	tagWave  sim.Word = 1 // BFS wave: payload none
	tagChild sim.Word = 2 // child announcement to parent: payload none
	tagSum   sim.Word = 3 // subtree sum: payload sumWords base-n digits
)

// sumWords is the number of base-n digits used to ship a subtree sum;
// counts are < n^3, so three digits always suffice.
const sumWords = 3

// CountResult is the outcome of a counting run.
type CountResult struct {
	// Count is the number of triangles in the root's connected component.
	Count int64
	// Rounds is the number of rounds until quiescence.
	Rounds int
	// Metrics is the engine accounting.
	Metrics sim.Metrics
}

// NewCounter builds per-node counting state machines rooted at `root`.
// maxDegree bounds the two-hop exchange schedule (as in
// baseline.NewTwoHop). The counting value is read from the returned
// collect function after the engine quiesces.
func NewCounter(n, b, maxDegree, root int) (mk func(id int) sim.Node, collect func() (int64, bool)) {
	exchangeRounds := sim.RoundsFor(maxDegree, b)
	if exchangeRounds < 1 {
		exchangeRounds = 1
	}
	// bfsStart: one extra round lets the final two-hop words drain.
	bfsStart := exchangeRounds + 1
	var rootTotal int64
	var rootDone bool
	mk = func(id int) sim.Node {
		return &counterNode{
			n:        n,
			b:        b,
			root:     root,
			bfsStart: bfsStart,
			twoHop:   make(map[int][]int),
			onRoot: func(total int64) {
				rootTotal = total
				rootDone = true
			},
		}
	}
	collect = func() (int64, bool) { return rootTotal, rootDone }
	return mk, collect
}

type counterNode struct {
	n        int
	b        int
	root     int
	bfsStart int
	onRoot   func(int64)

	twoHop   map[int][]int // neighbor -> its neighborhood
	localCnt int64         // triangles charged to this node (min vertex)

	joined     bool
	parent     int
	children   map[int]struct{}
	childSums  int
	acc        int64
	reported   bool
	childCutof int // round after which the child set is final

	// partials buffers sum records split across rounds, per sender.
	partials map[int][]sim.Word
}

func (c *counterNode) Init(ctx *sim.Context) {}

func (c *counterNode) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	// Stage 1: two-hop neighborhood exchange, rounds [0, bfsStart).
	if round == 0 {
		nbrs := ctx.InputNeighbors()
		words := make([]sim.Word, len(nbrs))
		for i, v := range nbrs {
			words[i] = sim.Word(v)
		}
		if len(words) > 0 {
			ctx.Broadcast(words...)
		}
	}
	if round < c.bfsStart {
		for _, d := range inbox {
			for _, w := range d.Words {
				c.twoHop[d.From] = append(c.twoHop[d.From], int(w))
			}
		}
		if round == c.bfsStart-1 {
			c.computeLocalCount(ctx)
			c.startBFS(ctx, round)
		}
		return
	}
	// Stage 2: BFS + convergecast (tagged messages, data-dependent).
	for _, d := range inbox {
		c.consumeTagged(ctx, round, d)
	}
	c.maybeReport(ctx, round)
}

// computeLocalCount charges each triangle {v,a,b} to min(v,a,b).
func (c *counterNode) computeLocalCount(ctx *sim.Context) {
	me := ctx.ID()
	nbrSet := make(map[int]struct{}, ctx.CommDegree())
	for _, v := range ctx.InputNeighbors() {
		nbrSet[int(v)] = struct{}{}
	}
	for a, lst := range c.twoHop {
		if a < me {
			continue // a is smaller: not our charge
		}
		for _, b := range lst {
			if b <= a || b == me {
				continue
			}
			if _, ok := nbrSet[b]; ok {
				// Triangle {me, a, b} with me < a < b.
				if me < a {
					c.localCnt++
				}
			}
		}
	}
}

func (c *counterNode) startBFS(ctx *sim.Context, round int) {
	c.children = make(map[int]struct{})
	if ctx.ID() != c.root {
		return
	}
	c.joined = true
	c.parent = -1
	ctx.Broadcast(tagWave)
	c.childCutof = round + 1 + c.childLag()
}

// childLag bounds the rounds between this node's wave emission and the
// last child announcement arriving: the wave takes 1 round, and a child's
// channel back to us carries at most 2 queued words (its child tag plus
// its own wave copy), i.e. ceil(2/B) further rounds.
func (c *counterNode) childLag() int {
	return 1 + sim.RoundsFor(2, c.b)
}

func (c *counterNode) consumeTagged(ctx *sim.Context, round int, d sim.Delivery) {
	ws := d.Words
	// Channels are FIFO, so a split sum record's continuation is always the
	// head of the next delivery from the same sender.
	if buf, ok := c.partials[d.From]; ok {
		buf = append(buf, ws...)
		if len(buf) < 1+sumWords {
			c.partials[d.From] = buf
			return
		}
		c.acc += decodeSum(buf[1:1+sumWords], c.n)
		c.childSums++
		delete(c.partials, d.From)
		ws = buf[1+sumWords:]
	}
	for len(ws) > 0 {
		switch ws[0] {
		case tagWave:
			ws = ws[1:]
			if !c.joined {
				c.joined = true
				c.parent = d.From
				// Child tag first: it must not queue behind the wave copy
				// on the parent channel (matters at B=1).
				ctx.SendTo(d.From, tagChild)
				ctx.Broadcast(tagWave)
				c.childCutof = round + 1 + c.childLag()
			}
		case tagChild:
			ws = ws[1:]
			c.children[d.From] = struct{}{}
		case tagSum:
			if len(ws) < 1+sumWords {
				// Split across rounds: stash and finish on the next chunk.
				if c.partials == nil {
					c.partials = make(map[int][]sim.Word)
				}
				c.partials[d.From] = append([]sim.Word(nil), ws...)
				return
			}
			c.acc += decodeSum(ws[1:1+sumWords], c.n)
			c.childSums++
			ws = ws[1+sumWords:]
		default:
			// Unknown tag: protocol violation; drop the remainder rather
			// than misparse (loses information, never fabricates).
			return
		}
	}
}

func (c *counterNode) maybeReport(ctx *sim.Context, round int) {
	if !c.joined || c.reported || c.children == nil {
		if !c.joined && round > c.bfsStart+2*c.n {
			// Unreachable from the root: never participates.
			ctx.SetDone()
		}
		return
	}
	// The child set is final one round after childCutof-delivered words.
	if round < c.childCutof {
		return
	}
	if c.childSums < len(c.children) {
		return
	}
	total := c.acc + c.localCnt
	c.reported = true
	if ctx.ID() == c.root {
		c.onRoot(total)
	} else {
		payload := append([]sim.Word{tagSum}, encodeSum(total, c.n)...)
		ctx.SendTo(c.parent, payload...)
	}
	ctx.SetDone()
}

func encodeSum(v int64, n int) []sim.Word {
	base := int64(n)
	if base < 2 {
		base = 2
	}
	out := make([]sim.Word, sumWords)
	for i := 0; i < sumWords; i++ {
		out[i] = sim.Word(v % base)
		v /= base
	}
	return out
}

func decodeSum(ws []sim.Word, n int) int64 {
	base := int64(n)
	if base < 2 {
		base = 2
	}
	var v int64
	for i := sumWords - 1; i >= 0; i-- {
		v = v*base + int64(ws[i])
	}
	return v
}

// CountTriangles runs the distributed counter on g and returns the exact
// triangle count of the root's connected component.
func CountTriangles(g *graph.Graph, root int, cfg sim.Config) (CountResult, error) {
	return CountTrianglesContext(context.Background(), g, root, cfg, nil)
}

// CountTrianglesContext is CountTriangles with cancellation at round
// boundaries and, when onRound is non-nil, a call after every executed
// round (idle rounds included, as zero deltas). A cancelled count returns
// ctx.Err() with the Rounds and Metrics of the prefix it ran; its Count is
// meaningless and reads 0.
func CountTrianglesContext(ctx context.Context, g *graph.Graph, root int, cfg sim.Config, onRound func(round int, d sim.RoundDelta)) (CountResult, error) {
	if root < 0 || root >= g.N() {
		return CountResult{}, fmt.Errorf("agg: root %d out of range", root)
	}
	mk, collect := NewCounter(g.N(), cfg.Normalized().BandwidthWords, g.MaxDegree(), root)
	nodes := make([]sim.Node, g.N())
	for v := range nodes {
		nodes[v] = mk(v)
	}
	eng, err := sim.NewEngine(g, nodes, cfg)
	if err != nil {
		return CountResult{}, err
	}
	// The hook is installed only for an observer: without one, the engine
	// jumps idle rounds in one step.
	eng.SetHooks(sim.Hooks{Round: onRound})
	if err := eng.RunUntilQuiescentContext(ctx); err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return CountResult{Rounds: eng.Round(), Metrics: eng.Metrics()}, err
		}
		return CountResult{}, err
	}
	total, ok := collect()
	if !ok {
		return CountResult{}, fmt.Errorf("agg: root never reported (is the root isolated?)")
	}
	return CountResult{Count: total, Rounds: eng.Round(), Metrics: eng.Metrics()}, nil
}

// MaxCount returns the largest count encodable in sumWords base-n digits —
// a sanity limit asserted by tests (C(n,3) always fits).
func MaxCount(n int) int64 {
	base := float64(n)
	if base < 2 {
		base = 2
	}
	return int64(math.Pow(base, sumWords)) - 1
}
