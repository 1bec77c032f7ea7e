package core

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// Tree message tags, the first word of every message after the two-hop
// exchange.
const (
	tagWave  sim.Word = 1 // BFS wave; no payload
	tagChild sim.Word = 2 // child announcement to the parent; no payload
	tagSum   sim.Word = 3 // subtree sum; sumWords base-n digits follow
)

// sumWords is the number of base-n digits a subtree sum ships in: counts
// are below n^3, so three always suffice.
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

// counter is the exact distributed triangle counter: the classic CONGEST
// aggregation construction, BFS tree plus convergecast, over two-hop
// knowledge.
//
// The paper distinguishes triangle finding, counting and listing: its
// Theorem 3 shows listing is strictly harder than counting in the clique
// (the Censor-Hillel et al. algorithms count). This is the CONGEST-side
// counting construction: every vertex learns the triangles through itself
// from a two-hop exchange (Theta(d_max) rounds) and charges each to its
// minimum vertex, and a BFS convergecast sums the charges at a root in
// O(D) more rounds. Total: Theta(d_max + D) rounds, after which the root
// holds the exact |T(G)| of its connected component. Unlike the phased
// algorithms, the convergecast is data dependent (a vertex forwards its
// subtree sum once its last child has reported), so a count runs to
// quiescence instead of to a schedule.
//
// One counter value is the sim.Node of every vertex, and it keeps flat
// per-vertex state. A vertex's Round writes only its own entry of vs, and
// read[u] only for a child u, so shard workers write disjoint entries;
// the root alone writes total.
type counter struct {
	root     int
	bfsStart int             // the first tree round; the two-hop exchange runs before it
	lag      int             // the rounds from a vertex's wave to its last child announcement
	place    [sumWords]int64 // each sum digit's place value
	vs       []countVertex
	// read is keyed by sender: how many words of u's sum record its parent
	// has read, 0 outside the record. The parent folds each digit into its
	// total as it arrives, so a record split across rounds needs no
	// buffer. Only u's parent writes read[u], and only once u's wave
	// copies, the last words u sends anyone else, have been delivered.
	read  []uint8
	total int64 // the root's count, once it reported
}

// countVertex is one vertex's counting state.
type countVertex struct {
	acc      int64 // triangles charged here plus the subtree sums read
	cutoff   int   // the round from which the child count is final
	parent   int32 // -1 at the root
	waiting  int32 // child announcements read minus child sums read
	joined   bool
	reported bool
}

// newCounter returns a counter for g rooted at root, at bandwidth b. g's
// maximum degree bounds the two-hop exchange, as in the two-hop lister.
func newCounter(g *graph.Graph, root, b int) *counter {
	n := g.N()
	return &counter{
		root: root,
		// One extra round lets the last two-hop words drain.
		bfsStart: max(sim.RoundsFor(g.MaxDegree(), b), 1) + 1,
		// The rounds between a vertex's wave and the last child
		// announcement reaching it: the wave takes one round, and a child's
		// channel back carries at most 2 queued words (its child tag and
		// its own wave copy), ceil(2/B) further rounds.
		lag:   1 + sim.RoundsFor(2, b),
		place: sumPlaces(n),
		vs:    make([]countVertex, n),
		read:  make([]uint8, n),
	}
}

func (c *counter) Init(ctx *sim.Context) {}

func (c *counter) Round(ctx *sim.Context, round int, inbox []sim.Delivery) {
	me := ctx.ID()
	v := &c.vs[me]
	if round < c.bfsStart {
		// The two-hop exchange: charge {me, j, l} with me < j < l to me as
		// j's list arrives.
		if round == 0 {
			BroadcastNeighbors(ctx)
		}
		for _, d := range inbox {
			for _, w := range d.Words {
				if l := int(w); me < d.From && d.From < l && ctx.HasInputEdge(l) {
					v.acc++
				}
			}
		}
		if round == c.bfsStart-1 && me == c.root {
			c.join(ctx, v, round, -1)
		}
		return
	}
	for _, d := range inbox {
		c.consume(ctx, v, round, d)
	}
	c.maybeReport(ctx, v, round)
}

// join makes the vertex a tree member under parent (-1 for the root) and
// sends the wave on.
func (c *counter) join(ctx *sim.Context, v *countVertex, round, parent int) {
	v.joined, v.parent = true, int32(parent)
	if parent >= 0 {
		// The child tag first: it must not queue behind the wave copy on
		// the parent channel (matters at B=1).
		ctx.SendTo(parent, tagChild)
	}
	ctx.Broadcast(tagWave)
	v.cutoff = round + 1 + c.lag
	// A member steps every round until it reports: undo the sleep of a
	// vertex that waited for the wave, or it would miss its cutoff round.
	ctx.SleepUntil(round + 1)
}

// consume parses one delivery of tree messages. Channels are FIFO, so a
// sum record split across rounds continues at the head of the sender's
// next delivery.
func (c *counter) consume(ctx *sim.Context, v *countVertex, round int, d sim.Delivery) {
	for _, w := range d.Words {
		if k := c.read[d.From]; k > 0 {
			v.acc += int64(w) * c.place[k-1]
			if k == sumWords {
				c.read[d.From] = 0
				v.waiting--
			} else {
				c.read[d.From] = k + 1
			}
			continue
		}
		switch w {
		case tagWave:
			if !v.joined {
				c.join(ctx, v, round, d.From)
			}
		case tagChild:
			v.waiting++
		case tagSum:
			c.read[d.From] = 1
		default:
			// Unknown tag: a protocol violation. Drop the rest rather than
			// misparse it (loses information, never fabricates).
			return
		}
	}
}

// maybeReport sends the subtree sum to the parent, or leaves it in total
// at the root, once no child can still announce itself and every child's
// sum is in.
func (c *counter) maybeReport(ctx *sim.Context, v *countVertex, round int) {
	if !v.joined {
		deadline := c.bfsStart + 2*ctx.N()
		if round > deadline {
			ctx.SetDone() // unreachable from the root: never participates
			return
		}
		// Nothing happens here before the root's wave arrives, which wakes
		// the vertex; without one, it sleeps through to the deadline.
		ctx.SleepUntil(deadline + 1)
		return
	}
	if v.reported || round < v.cutoff || v.waiting > 0 {
		return
	}
	v.reported = true
	if ctx.ID() == c.root {
		c.total = v.acc
	} else {
		rec := [1 + sumWords]sim.Word{tagSum}
		digits := encodeSum(v.acc, ctx.N())
		copy(rec[1:], digits[:])
		ctx.SendTo(int(v.parent), rec[:]...)
	}
	ctx.SetDone()
}

// sumBase is the base a subtree sum's digits are written in: n, at least 2.
func sumBase(n int) int64 { return max(int64(n), 2) }

// encodeSum writes v as sumWords base-n digits, least significant first.
func encodeSum(v int64, n int) (ws [sumWords]sim.Word) {
	base := sumBase(n)
	for i := range ws {
		ws[i] = sim.Word(v % base)
		v /= base
	}
	return ws
}

// sumPlaces returns each digit's place value, base^i: a sum is the sum
// of its digits times their place values.
func sumPlaces(n int) (p [sumWords]int64) {
	p[0] = 1
	for i := 1; i < sumWords; i++ {
		p[i] = p[i-1] * sumBase(n)
	}
	return p
}
