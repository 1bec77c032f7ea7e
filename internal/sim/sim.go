// Package sim implements a round-synchronous CONGEST network simulator.
//
// The model follows Izumi & Le Gall (PODC'17), Section 2: the communication
// topology is a graph; execution proceeds in synchronous rounds; in each
// round every node may transfer one O(log n)-bit message per incident edge.
// We measure messages in words of ceil(log2 n) bits and allow B words per
// directed edge per round (B is the bandwidth constant hidden in the
// paper's O(log n); the default is 2, enough for one edge identifier).
//
// Algorithms are written as per-node state machines implementing Node.
// Logical payloads larger than B words are queued by the engine and trickle
// across rounds, so the engine's round count is exactly the model's round
// complexity. The engine never lets a node observe anything beyond its own
// incident input edges, the value of n, its private randomness, and the
// words delivered to it — the CONGEST knowledge discipline.
//
// One round function steps every engine, over a plan of contiguous node
// shards: by default the plan has one shard and every phase of the round
// runs on the caller's goroutine. Config.Shards cuts more shards, which run
// each phase of the round on a worker pool (goroutines synchronized by a
// barrier); for the same seed every shard count produces identical outputs
// and metrics.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// Word is the unit of communication: one word carries ceil(log2 n) bits
// (enough for a node identifier).
type Word = uint64

// Delivery is the batch of words received from one neighbor in one round.
//
// Words points into engine memory — the sender shard's send arena, or a
// scratch buffer when the batch spans two sends — and is valid only during
// the Round call that receives it: the engine reuses that memory in later
// rounds. A node that keeps words past its Round call must copy them, and
// no node may write to Words: one arena span may be delivered to many
// receivers.
type Delivery struct {
	From  int // sender node id
	Words []Word
}

// Node is a per-vertex algorithm state machine.
//
// Init is called once before round 0. Round is called at most once per
// round with the words delivered this round; a node that called SleepUntil
// is skipped while it sleeps unless a delivery arrives for it.
type Node interface {
	Init(ctx *Context)
	Round(ctx *Context, round int, inbox []Delivery)
}

// Context is a node's handle on the simulated world. It deliberately
// exposes only CONGEST-legal knowledge.
type Context struct {
	id        int
	n         int
	banw      int
	rng       *rand.Rand // wraps &src; built on the first RNG() call
	src       nodeStream
	comm      []int32    // communication neighbors (sorted); aliases the CSR slab
	input     []int32    // input-graph neighbors (sorted); == comm in CONGEST mode
	arena     *sendArena // the node's shard arena; Send and Broadcast append here
	outputs   []graph.Triangle
	seenOut   int // outputs already passed to Hooks.Triangle, or passed over with none set
	wake      int
	done      bool
	bcastOnly bool

	wordsSent int64
}

// ID returns this node's identifier in [0, n).
func (c *Context) ID() int { return c.id }

// N returns the number of nodes in the network (known to all nodes).
func (c *Context) N() int { return c.n }

// Bandwidth returns B, the words deliverable per directed edge per round.
func (c *Context) Bandwidth() int { return c.banw }

// RNG returns this node's private random stream: splitmix64 over a
// per-node draw counter, seeded by nodeSeed(engine seed, id). The stream's
// whole state is two words held in the Context, so seeding, a rewind
// (Engine.Rebind) and snapshot restore are O(1) per node; only the 48-byte
// rand.Rand wrapper is allocated, on first use, and kept across rewinds.
func (c *Context) RNG() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(&c.src)
	}
	return c.rng
}

// nodeStream is splitmix64 (Steele, Lea & Flood, OOPSLA 2014) in counter
// form: draw k, counting from 1, is mix64(seed + k·golden). The draw
// counter is therefore the stream position, and repositioning to any draw
// is a single store. Int63 and Uint64 each consume one draw.
type nodeStream struct {
	seed, draws uint64
}

func (s *nodeStream) Uint64() uint64 {
	s.draws++
	return mix64(s.seed + s.draws*golden)
}

func (s *nodeStream) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *nodeStream) Seed(seed int64) { *s = nodeStream{seed: uint64(seed)} }

// golden is splitmix64's increment: 2^64 divided by the golden ratio, odd.
const golden = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CommNeighbors returns the sorted communication neighbors. In the CONGEST
// model these are the input-graph neighbors; in the CONGEST clique they are
// all other nodes. The slice aliases the engine's CSR slab and must not be
// modified.
func (c *Context) CommNeighbors() []int32 { return c.comm }

// CommDegree returns len(CommNeighbors()).
func (c *Context) CommDegree() int { return len(c.comm) }

// InputNeighbors returns the sorted neighbors of this node in the input
// graph — the only part of the input a node initially knows. The slice
// aliases the graph's CSR slab and must not be modified.
func (c *Context) InputNeighbors() []int32 { return c.input }

// HasInputEdge reports whether {this node, u} is an input-graph edge.
func (c *Context) HasInputEdge(u int) bool {
	return containsSorted(c.input, int32(u))
}

// NbrIndexOf maps a communication neighbor's node id to its index in
// CommNeighbors. It returns -1 when u is not a neighbor.
func (c *Context) NbrIndexOf(u int) int {
	if idx, ok := slices.BinarySearch(c.comm, int32(u)); ok {
		return idx
	}
	return -1
}

// bcastIdx marks a send-log record as a broadcast-mode emission.
const bcastIdx = -1

// Send queues words on the directed channel to the nbrIdx-th communication
// neighbor. The engine delivers at most Bandwidth() words per channel per
// round, in FIFO order. In the broadcast CONGEST model unicast is illegal
// and Send panics.
//
// The words are copied once, into the send arena of the node's engine
// shard, so the caller may reuse its slice as soon as Send returns, and
// sending is allocation-free once the arena has warmed up.
func (c *Context) Send(nbrIdx int, words ...Word) {
	if len(words) == 0 {
		return
	}
	if c.bcastOnly {
		panic(fmt.Sprintf("sim: node %d unicasts in the broadcast CONGEST model", c.id))
	}
	if nbrIdx < 0 || nbrIdx >= len(c.comm) {
		panic(fmt.Sprintf("sim: node %d sends to invalid neighbor index %d", c.id, nbrIdx))
	}
	c.record(int32(nbrIdx), words, 1)
}

// SendTo queues words to the communication neighbor with node id u.
func (c *Context) SendTo(u int, words ...Word) {
	idx := c.NbrIndexOf(u)
	if idx < 0 {
		panic(fmt.Sprintf("sim: node %d sends to non-neighbor %d", c.id, u))
	}
	c.Send(idx, words...)
}

// Broadcast queues the same words to every communication neighbor. In the
// broadcast CONGEST model this is the only legal primitive and consumes one
// shared B-word channel per round; in the unicast models every channel
// carries the words at B words per round, exactly as one Send per
// neighbor would.
//
// Like Send, Broadcast copies the words once, into the shard arena — in
// the unicast models too, where all the node's channels queue that one
// copy — so the caller may reuse its slice as soon as Broadcast returns.
func (c *Context) Broadcast(words ...Word) {
	if len(words) == 0 {
		return
	}
	if c.bcastOnly {
		c.record(bcastIdx, words, 1)
		return
	}
	if len(c.comm) > 0 {
		c.record(allIdx, words, len(c.comm))
	}
}

// Output records a triangle in this node's output set T_i.
func (c *Context) Output(t graph.Triangle) {
	c.outputs = append(c.outputs, t)
}

// SleepUntil asks the engine not to call Round again before the given round
// unless a delivery arrives. It is an optimization only; semantics are
// unchanged for nodes that never sleep.
func (c *Context) SleepUntil(round int) { c.wake = round }

// SetDone marks this node finished; the engine quiesces once all nodes are
// done and all queues are empty.
func (c *Context) SetDone() { c.done = true }

func containsSorted(lst []int32, x int32) bool {
	_, ok := slices.BinarySearch(lst, x)
	return ok
}

// WordBits returns the number of bits per word for an n-node network:
// ceil(log2 n), with a minimum of 1.
func WordBits(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// RoundsFor returns the number of rounds needed to push `words` words over
// one channel at bandwidth b: ceil(words/b), at least 0.
func RoundsFor(words, b int) int {
	if words <= 0 {
		return 0
	}
	return (words + b - 1) / b
}

// Metrics aggregates the communication cost of a run.
type Metrics struct {
	Rounds            int     // rounds executed
	ActiveRounds      int     // rounds in which at least one word moved
	MessagesDelivered int64   // channel-round deliveries
	WordsDelivered    int64   // total words moved
	WordBits          int     // bits per word (ceil log2 n)
	PerNodeWordsRecv  []int64 // indexed by node id
	PerNodeWordsSent  []int64

	// FastForwardedRounds counts the idle rounds the activity scheduler
	// advanced through its fast path (batched jumps or zero-delta hook
	// emissions) instead of stepping. It is scheduler provenance, not model
	// behavior: Rounds already includes these rounds, every other metric is
	// unaffected by them, and the dense reference always reports 0.
	FastForwardedRounds int

	// Faults aggregates the fault layer's interventions (all zero without
	// Config.Faults).
	Faults FaultMetrics
}

// TotalBits returns the total bits moved during the run.
func (m Metrics) TotalBits() int64 { return m.WordsDelivered * int64(m.WordBits) }

// BitsReceived returns the bits received by node v over the whole run — the
// transcript length |pi_v| that Theorem 3 reasons about.
func (m Metrics) BitsReceived(v int) int64 {
	return m.PerNodeWordsRecv[v] * int64(m.WordBits)
}

// MaxBitsReceived returns the largest per-node received-bit count and the
// node achieving it.
func (m Metrics) MaxBitsReceived() (node int, bits int64) {
	for v, w := range m.PerNodeWordsRecv {
		b := w * int64(m.WordBits)
		if b > bits {
			node, bits = v, b
		}
	}
	return node, bits
}
