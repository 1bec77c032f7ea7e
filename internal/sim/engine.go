package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/graph"
)

// Mode selects the communication topology.
type Mode int

const (
	// ModeCONGEST uses the input graph itself as the communication topology
	// (the standard CONGEST model).
	ModeCONGEST Mode = iota + 1
	// ModeClique uses the complete graph as the communication topology while
	// the input graph is only node-local edge knowledge (the CONGEST clique).
	ModeClique
	// ModeBroadcast is the broadcast CONGEST model (the model of the
	// Drucker et al. lower bound in Table 1): per round each node emits ONE
	// common B-word message that all its neighbors receive. Unicast sends
	// panic; use Context.Broadcast only.
	ModeBroadcast
)

// Scheduler selects how the engine decides which nodes run each round.
type Scheduler int

const (
	// SchedulerActivity (the default) drives rounds from activity alone: a
	// ready set of nodes with pending deliveries plus a wake-wheel bucketed
	// on SleepUntil targets, so scheduling costs O(active) per round instead
	// of O(n), and idle stretches — every channel drained, the earliest wake
	// k>1 rounds away — are fast-forwarded (see DESIGN.md, "activity-driven
	// scheduler"). Observable behavior (outputs, metrics, Round(), hook
	// stream, cancellation prefixes) is bit-identical to SchedulerDense.
	SchedulerActivity Scheduler = iota
	// SchedulerDense is the retained reference scheduling branch of the
	// round stepper: it picks each round's nodes by scanning all n nodes
	// instead of the ready set and wake wheel, and never fast-forwards. It
	// exists for differential testing of SchedulerActivity, always runs on
	// one shard, and costs O(n) per round.
	SchedulerDense
)

// Config controls an engine run.
type Config struct {
	// Mode selects CONGEST (default) or CONGEST clique.
	Mode Mode
	// BandwidthWords is B, the words per directed edge per round (default 2).
	BandwidthWords int
	// Seed derives every node's private random stream.
	Seed int64
	// Shards statically partitions the nodes into at most that many
	// contiguous engine shards (cut by degree weight), each owning its
	// nodes' send arena, in-channel queues, inboxes and scheduling lists;
	// cross-shard channel activations go through per-(sender-shard,
	// receiver-shard) staging lists drained in ascending shard order, so
	// outputs, metrics, Round(), hook streams and cancellation prefixes are
	// bit-identical to the one-shard plan for every shard count (see
	// DESIGN.md, "Sharded engine & binary CSR").
	// It is the engine's only placement setting: 0 and 1 select the
	// one-shard plan, which runs every phase on the caller's goroutine and
	// never builds a worker pool; with more shards, every phase that moves
	// at least parallelMinWords words runs one shard per worker-pool
	// goroutine when GOMAXPROCS > 1, and the shards run in ascending order
	// on the caller's goroutine otherwise, with identical results.
	// Requires the activity scheduler (the default); under SchedulerDense
	// the value is ignored. Counts above MaxShards are clamped to it.
	Shards int
	// MaxRounds aborts RunUntilQuiescent (default 1 << 22).
	MaxRounds int
	// Scheduler selects how the round stepper picks each round's nodes;
	// the zero value is SchedulerActivity, the production path, and
	// SchedulerDense is the reference branch tests compare it against.
	Scheduler Scheduler
	// Faults, when non-nil and non-empty, interposes the deterministic
	// fault plan — crash-stop schedules, per-link loss/duplication coins
	// and delay arming — on the delivery phase (see faults.go). The plan
	// participates in the determinism contract exactly like the seed:
	// results are bit-identical across shard counts and checkpoint
	// cut-and-resume for the same plan, and snapshots embed
	// the plan fingerprint so a restore under a different plan fails with
	// ErrSnapshotMismatch. A nil or empty plan leaves every hot path on
	// its fault-free fast path.
	Faults *faults.Plan
}

// Normalized returns the config with every default applied — the exact
// resolution NewEngine performs, exported so callers that key pools or
// caches on config fields (e.g. core's engine cache) share one source of
// truth for the defaults.
func (c Config) Normalized() Config {
	if c.Mode == 0 {
		c.Mode = ModeCONGEST
	}
	if c.BandwidthWords <= 0 {
		c.BandwidthWords = 2
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 1 << 22
	}
	if c.Shards < 0 || c.Scheduler == SchedulerDense {
		c.Shards = 0
	}
	c.Shards = min(c.Shards, MaxShards)
	return c
}

// MaxShards bounds Config.Shards. A plan of S shards keeps S*S staging
// lists and parks S-1 worker goroutines, so the count is clamped; no
// shard count changes a Result. The congest.Session doc quotes its value:
// the session never places a job on more shards.
const MaxShards = 64

// ErrMaxRounds is returned when a run exceeds Config.MaxRounds without
// quiescing.
var ErrMaxRounds = errors.New("sim: exceeded MaxRounds without quiescing")

// RoundDelta is the communication that moved during one round — the
// per-round increment of the cumulative Metrics counters.
type RoundDelta struct {
	// Messages is the channel-round deliveries made this round.
	Messages int64
	// Words is the words moved this round.
	Words int64
	// Moved reports whether any word moved (the ActiveRounds criterion).
	Moved bool
}

// Hooks are the engine's streaming observation points. Both callbacks fire
// on the engine's sequential spine (never from a delivery or node worker),
// in a deterministic order that does not depend on Config.Shards:
// Triangle fires during the merge phase in ascending node order, once per
// newly recorded output; Round fires after each round completes. An output
// recorded while no Triangle hook was set, in this engine or in the one a
// snapshot was taken from, never fires it.
//
// Hooks survive until the next Rebind, which clears them.
type Hooks struct {
	Round    func(round int, d RoundDelta)
	Triangle func(node int, t graph.Triangle)
	// Fault fires on the sequential spine for each fault-layer event
	// (currently crash-stop kills), before the affected round's Round
	// hook, in deterministic (round, node) order. Never fires without
	// Config.Faults.
	Fault func(ev FaultEvent)
}

// SetHooks installs streaming observation callbacks for the current run.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// Engine simulates one algorithm run over one input graph.
//
// Channel state lives in a single flat slab laid out by receiver: the
// communication topology is a CSR adjacency (commOffs, commTgts), and the
// directed channel from u to v is channel c = commOffs[v]+j, where j is u's
// index in v's sorted neighbour list, so commTgts[c] is its sender and a
// receiver's in-channels are contiguous in every per-channel array
// (queues, active, the fault layer's arming). A queue holds spans of the
// sender shard's send arena, never words (see arena.go), and its channel
// is active iff it is non-empty. Active channels are tracked in a flat
// per-receiver list plus a per-shard receiver bitset, so a round touches
// only live state, visits receivers in ascending order, and steady-state
// rounds allocate nothing.
type Engine struct {
	cfg   Config
	input *graph.Graph
	nodes []Node
	ctxs  []*Context

	// Communication topology, CSR form. commTgts[commOffs[v]+i] is the i-th
	// communication neighbor of v. In CONGEST and broadcast modes these
	// slices alias the input graph's own CSR slab (zero copy).
	commOffs []int32
	commTgts []int32

	// twin is the reverse-slot index: for the slot s = commOffs[u]+i of
	// v = commTgts[s] in u's list, twin[s] is the slot of u in v's list,
	// which is channel u→v. On the symmetric sorted CSR it is an
	// involution; NewEngine and Rebind refuse a topology it cannot be
	// built for (see reverseSlots).
	twin []int32

	// queues is the per-channel slab, indexed by channel c = commOffs[v]+j
	// (receiver v, sender commTgts[c]).
	queues []spanQueue

	// Receiver-major active tracking: active[commOffs[v]:commOffs[v]+
	// nactive[v]] lists v's active in-channels in activation order — at
	// most deg(v) of them, so v's slice of the slab always holds them — and
	// recvBits[s] (below) marks shard s's receivers with at least one.
	// epoch stamps the fault layer's arming; bumping it invalidates every
	// stamp at once.
	epoch   uint32
	active  []int32
	nactive []int32

	// queuedWords is the words currently queued on all channels and
	// broadcast queues, so it is non-zero exactly when some queue is: the
	// test for pending traffic, the delivery fan-out's gate, the arena flip
	// and compaction trigger, and PendingWords. It is credited at the merge
	// and debited from the folded delivery counters, always on the spine.
	queuedWords int64

	// arenas holds one send arena per shard: every sent word is stored
	// there once, and queues hold spans of it (see arena.go).
	arenas []*sendArena

	// Broadcast-mode state: one shared outgoing queue per node, and the
	// senders whose queue is non-empty, in activation order.
	bcastQ      []spanQueue
	bcastActive []int32

	inboxes [][]Delivery
	metrics Metrics
	hooks   Hooks
	round   int
	started bool

	// flt is the fault runtime (nil for fault-free engines — every fault
	// branch below is gated on that nil check, which is what keeps the
	// no-plan hot path at its fault-free cost).
	flt *faultState

	// wpool is the persistent worker pool the stepper fans out on, built on
	// the first fan-out (never for a one-shard plan).
	wpool *workerPool

	// Activity-scheduler state. notDone counts nodes with ctx.done unset
	// (maintained on the sequential spine against doneMark, never from node
	// workers) so quiescent() is O(1); wheel buckets sleeping nodes by wake
	// round; nextWake[v] is the authoritative wake round of node v (-1 when
	// done), used to skip lazily invalidated wheel entries; schedStamp/
	// schedGen dedupe the per-round scheduled lists.
	notDone    int
	doneMark   []bool
	nextWake   []int
	schedGen   uint64
	schedStamp []uint64
	wheel      wakeWheel
	// nextReady is the wheel's fast path for the overwhelmingly common wake
	// target "the very next round" (nodes that never sleep): appended in
	// merge order — ascending — and consumed wholesale by the next step, it
	// keeps busy nodes out of the map-and-heap wheel entirely.
	nextReady []int32

	// Shard plan (see stepSharded in sharded.go). Nodes are cut into
	// nshards contiguous ranges (shardBounds, len nshards+1) by degree
	// weight — one range when Config.Shards <= 1 — and shardOf maps node to
	// shard. recvBits[s] is a bitset over shard s's node range, bit
	// v-shardBounds[s] set iff receiver v has an active in-channel, and
	// shardSched[s] lists its nodes scheduled this round;
	// staging[s*nshards+t] holds the channels sender-shard s activated
	// toward receiver-shard t; stagedBcast[s] holds shard s's newly
	// broadcast-active senders; shardCtr carries per-shard counters across
	// the fan-out barriers.
	nshards        int
	shardBounds    []int32
	shardOf        []int32
	recvBits       [][]uint64
	shardSched     [][]int32
	staging        [][]staged
	stagedBcast    [][]int32
	shardCtr       []deliveryShard
	shardDeliverFn func(s int)
	shardComputeFn func(s int)
	shardMergeFn   func(s int)
	shardDrainFn   func(s int)
}

// deliveryShard accumulates one engine shard's delivery-phase counters;
// padded to 128 bytes — two cache lines, because the adjacent-line
// hardware prefetcher pairs lines — so shards delivering concurrently do
// not false-share. The fault counters (popped through delayed) are written
// only by deliverToFaulty and folded on the spine like the base pair.
type deliveryShard struct {
	messages  int64
	words     int64
	popped    int64 // words removed from queues (≠ words under faults)
	lost      int64
	dup       int64
	crashDrop int64
	delayed   int64
	moved     bool
	_         [71]byte
}

// NewEngine builds an engine for the given input graph and per-node
// algorithm instances. len(nodes) must equal input.N(). It allocates only
// what the vertex count, the mode and the fault plan size, and binds input
// with the same Rebind that rewinds the engine for every later run.
func NewEngine(input *graph.Graph, nodes []Node, cfg Config) (*Engine, error) {
	cfg = cfg.Normalized()
	n := input.N()
	if len(nodes) != n {
		return nil, fmt.Errorf("sim: %d nodes for %d-vertex graph", len(nodes), n)
	}
	e := &Engine{cfg: cfg, nactive: make([]int32, n)}
	if cfg.Mode == ModeClique {
		// The clique topology does not depend on the input edges, so its
		// CSR, reverse-slot index and per-channel slabs are built once here
		// and Rebind leaves them alone. CSR offsets are int32; the clique
		// needs n*(n-1) directed-edge slots.
		if n > 1 && n*(n-1) > (1<<31-1) {
			return nil, fmt.Errorf("sim: clique mode supports at most 46341 nodes (n=%d overflows the CSR edge space)", n)
		}
		e.commOffs = make([]int32, n+1)
		e.commTgts = make([]int32, n*(n-1))
		for v := 0; v < n; v++ {
			e.commOffs[v+1] = e.commOffs[v] + int32(n-1)
			lst := e.commTgts[e.commOffs[v]:e.commOffs[v+1]]
			i := 0
			for u := 0; u < n; u++ {
				if u != v {
					lst[i] = int32(u)
					i++
				}
			}
		}
		ne := len(e.commTgts)
		e.twin = make([]int32, ne)
		if err := reverseSlots(e.twin, e.nactive, e.commOffs, e.commTgts); err != nil {
			return nil, err
		}
		e.queues = make([]spanQueue, ne)
		e.active = make([]int32, ne)
	}
	if cfg.Mode == ModeBroadcast {
		e.bcastQ = make([]spanQueue, n)
	}
	e.ctxs = make([]*Context, n)
	for v := range e.ctxs {
		e.ctxs[v] = &Context{id: v, n: n, bcastOnly: cfg.Mode == ModeBroadcast}
	}
	e.inboxes = make([][]Delivery, n)
	e.doneMark = make([]bool, n)
	e.nextWake = make([]int, n)
	e.schedStamp = make([]uint64, n)
	e.metrics = Metrics{
		WordBits:         WordBits(n),
		PerNodeWordsRecv: make([]int64, n),
		PerNodeWordsSent: make([]int64, n),
	}
	e.shardDeliverFn = e.shardDeliverWork
	e.shardComputeFn = e.shardComputeWork
	e.shardMergeFn = e.shardMergeWork
	e.shardDrainFn = e.shardDrainWork
	if !cfg.Faults.Empty() {
		flt, err := newFaultState(cfg.Faults, n, cfg.Mode == ModeBroadcast)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		e.flt = flt
	}
	if err := e.Rebind(input, nodes, cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// nodeSeed mixes the engine seed with the node id (splitmix64 finalizer) so
// per-node streams are independent and engine-order independent.
func nodeSeed(seed int64, id int) int64 {
	return int64(mix64(uint64(seed)+golden*uint64(id+1)) & math.MaxInt64)
}

// reverseSlots fills twin, the reverse-slot index of the CSR topology
// (offs, tgts), in O(n+m): senders are walked in ascending order, so the
// next unfilled slot of each receiver's sorted list — cursor[v] counts the
// filled ones — must name the current sender. It verifies that it does, so
// an asymmetric or unsorted topology (a .csrbin load checks neither) is an
// error rather than two channels sharing a queue. cursor holds one entry
// per node; it must be all zero, and is left so.
func reverseSlots(twin, cursor, offs, tgts []int32) error {
	n := int32(len(cursor))
	if len(offs) != len(cursor)+1 || offs[0] != 0 || int(offs[n]) != len(tgts) {
		return fmt.Errorf("sim: topology offsets do not span %d nodes and %d slots", n, len(tgts))
	}
	var err error
	for u := int32(0); u < n && err == nil; u++ {
		if offs[u] > offs[u+1] {
			err = fmt.Errorf("sim: topology offsets decrease at node %d", u)
			break
		}
		for s := offs[u]; s < offs[u+1]; s++ {
			v := tgts[s]
			if v < 0 || v >= n {
				err = fmt.Errorf("sim: topology names node %d of %d", v, n)
				break
			}
			c := offs[v] + cursor[v]
			if c >= offs[v+1] || tgts[c] != u {
				err = fmt.Errorf("sim: topology is not symmetric and sorted: %d lists %d without a matching entry", u, v)
				break
			}
			twin[s] = c
			cursor[v]++
		}
	}
	clear(cursor)
	return err
}

func (e *Engine) initNodes() {
	if e.started {
		return
	}
	e.started = true
	for v, nd := range e.nodes {
		ctx := e.ctxs[v]
		nd.Init(ctx)
		e.flushLog(ctx.arena)
		e.metrics.PerNodeWordsSent[v] = ctx.wordsSent
		e.emitOutputs(v)
		e.trackNode(v, 0)
	}
}

// trackNode updates the scheduling state after node v's Init or Round ran,
// always on the sequential spine (init loop or merge phase — never from a
// node worker, so the done counter and the wheel need no synchronization):
// it folds ctx.done transitions into the notDone counter and, under the
// activity scheduler, refreshes v's wake-wheel entry. floor is the earliest
// round v could run next: 0 at init, round+1 from the merge phase. A node
// whose recorded nextWake already matches keeps its existing wheel entry;
// otherwise the new entry supersedes it and the old one is skipped on pop.
func (e *Engine) trackNode(v, floor int) {
	ctx := e.ctxs[v]
	if ctx.done != e.doneMark[v] {
		e.doneMark[v] = ctx.done
		if ctx.done {
			e.notDone--
		} else {
			e.notDone++
		}
	}
	if e.cfg.Scheduler == SchedulerDense {
		return
	}
	if ctx.done {
		e.nextWake[v] = -1
		return
	}
	w := ctx.wake
	if w < floor {
		w = floor
	}
	if w == floor {
		// Due at the very next step: bypass the wheel. Entries here cannot
		// be invalidated (the node cannot run again before its due round),
		// so consumption needs no nextWake check; updating nextWake anyway
		// keeps it authoritative for any older wheel entries.
		e.nextWake[v] = w
		e.nextReady = append(e.nextReady, int32(v))
		return
	}
	if e.nextWake[v] != w {
		e.nextWake[v] = w
		e.wheel.push(w, int32(v))
	}
}

// emitOutputs streams node v's not-yet-reported outputs through the
// Triangle hook, if one is set, and advances v's streamed-output mark either
// way. Called only on the sequential spine (init loop and merge phase), in
// ascending node order, so the emission order is deterministic.
func (e *Engine) emitOutputs(v int) {
	ctx := e.ctxs[v]
	if e.hooks.Triangle != nil {
		for _, t := range ctx.outputs[ctx.seenOut:] {
			e.hooks.Triangle(v, t)
		}
	}
	ctx.seenOut = len(ctx.outputs)
}

// deliverTo drains up to B words from every active in-channel of receiver
// v into v's inbox, in activation order. It touches only v-owned state (v's
// inbox, v's in-channel queues and active list — both contiguous — and v's
// recv counter), the scratch of v's shard arena a and the caller's
// counters, so engine shards can deliver to their own receivers
// concurrently. Senders' arenas are only read.
func (e *Engine) deliverTo(v int32, shard *deliveryShard, a *sendArena) {
	if e.flt != nil {
		e.deliverToFaulty(v, shard, a)
		return
	}
	b := e.cfg.BandwidthWords
	lo := e.commOffs[v]
	act := e.active[lo : lo+e.nactive[v]]
	keep := act[:0]
	inbox := e.inboxes[v]
	words := int64(0)
	for _, c := range act {
		q := &e.queues[c]
		from := e.commTgts[c]
		ws := a.pop(q, e.arenaOf(from), b)
		inbox = append(inbox, Delivery{From: int(from), Words: ws})
		words += int64(len(ws))
		if q.n != 0 {
			keep = append(keep, c)
		}
	}
	e.inboxes[v] = inbox
	shard.messages += int64(len(act))
	shard.words += words
	if len(act) > 0 {
		shard.moved = true
	}
	e.metrics.PerNodeWordsRecv[v] += words
	e.nactive[v] = int32(len(keep))
}

// consumeInbox empties node v's inbox after its Round call, zeroing the
// entries so their word slices pin no arena or scratch memory.
func (e *Engine) consumeInbox(v int32) {
	clear(e.inboxes[v])
	e.inboxes[v] = e.inboxes[v][:0]
}

// runConfig normalizes cfg for a rewind and checks that it keeps the
// settings the engine was built for.
func (e *Engine) runConfig(cfg Config) (Config, error) {
	cfg = cfg.Normalized()
	switch {
	case cfg.Mode != e.cfg.Mode:
		return cfg, fmt.Errorf("sim: rewind to mode %d on a mode-%d engine", cfg.Mode, e.cfg.Mode)
	case cfg.Scheduler != e.cfg.Scheduler:
		return cfg, fmt.Errorf("sim: rewind to scheduler %d on a scheduler-%d engine", cfg.Scheduler, e.cfg.Scheduler)
	case faults.Fingerprint(cfg.Faults) != e.FaultPlanHash():
		return cfg, fmt.Errorf("sim: rewind to fault plan %#x on an engine compiled for %#x", faults.Fingerprint(cfg.Faults), e.FaultPlanHash())
	}
	return cfg, nil
}

// Input returns the input graph the engine currently simulates.
func (e *Engine) Input() *graph.Graph { return e.input }

// Config returns the engine's resolved configuration for the current run
// (defaults applied; the settings of the last Rebind).
func (e *Engine) Config() Config { return e.cfg }

// Rebind is the engine's one rewind: it readies the engine for a fresh run
// of nodes under cfg over input, a graph on the engine's vertex set — a new
// node set, zeroed metrics, empty channels and empty send arenas, while
// every slab (queues, stamps, lists, inboxes, arena chunks) keeps its
// capacity. cfg's seed, bandwidth, shard count and round cap take effect;
// its mode, scheduler and fault plan must be the engine's own, because
// they size the slabs and compile into the engine, and a mismatch is
// refused before the engine is touched.
//
// Rebinding to the engine's current graph skips the topology swap, and
// re-cuts the shard plan only when cfg asks for a new shard count, keeping
// every per-shard list (see initShards). Bumping the epoch invalidates all
// arming stamps in O(1), and only channels that were still active have
// queued words to discard, so rewinding a drained engine is O(n): repeated
// runs (benchmark loops, pooled engines serving jobs of any shard count
// and bandwidth) reuse one engine allocation-free.
//
// A new graph — the dynamic-graph epoch-snapshot path, or a pooled engine
// borrowed for another graph of the same size — re-points the engine at
// its CSR and re-cuts the shard plan, whose degree weights moved with it.
// The per-channel slabs are resized reusing their capacity, so rebinding
// across graphs of comparable density allocates little to nothing: only
// growth beyond any previously seen edge count pays. In clique mode the
// communication topology does not depend on the input edges, so only the
// per-node input views change. A topology that is not symmetric and sorted
// is refused with an error; the engine then keeps its old graph, rewound
// for nodes under cfg.
func (e *Engine) Rebind(input *graph.Graph, nodes []Node, cfg Config) error {
	n := len(e.ctxs)
	if input.N() != n {
		return fmt.Errorf("sim: rebind to %d-vertex graph on %d-vertex engine", input.N(), n)
	}
	if len(nodes) != n {
		return fmt.Errorf("sim: rebind with %d nodes for %d-vertex graph", len(nodes), n)
	}
	cfg, err := e.runConfig(cfg)
	if err != nil {
		return err
	}
	// Drain channel state while the channel ids still mean what the queues
	// think they mean; after a swap the old active lists would index the
	// wrong channels.
	recut := e.clearRun(nodes, cfg)
	if input != e.input {
		if err = e.bindTopology(input); err == nil {
			recut = true
		} else if e.input == nil {
			return err // a new engine has no graph to keep, nor a plan to cut
		}
	}
	if recut {
		e.initShards()
		e.bindArenas()
	}
	return err
}

// bindTopology swaps a drained engine onto input's CSR, keeping the old
// graph when input's topology is refused.
func (e *Engine) bindTopology(input *graph.Graph) error {
	inOffs, inTgts := input.CSR()
	if e.cfg.Mode != ModeClique {
		ne := len(inTgts)
		twin := e.twin
		if cap(twin) < ne {
			twin = make([]int32, ne)
		}
		// clearRun left every nactive entry zero: it is the build's cursor.
		if err := reverseSlots(twin[:ne], e.nactive, inOffs, inTgts); err != nil {
			// The old index may be partly overwritten: rebuild it and keep
			// the old graph, if any. The rebuild cannot fail: it succeeded
			// before.
			if e.input != nil {
				_ = reverseSlots(e.twin, e.nactive, e.commOffs, e.commTgts)
			}
			return err
		}
		e.twin = twin[:ne]
		e.commOffs, e.commTgts = inOffs, inTgts
		// Every queue is empty after clearRun, including ones a previous
		// rebind sliced away, so the slabs regrow over their capacity as is.
		if cap(e.queues) < ne {
			e.queues = make([]spanQueue, ne)
			e.active = make([]int32, ne)
		}
		e.queues = e.queues[:ne]
		e.active = e.active[:ne]
	}
	e.input = input
	for v, ctx := range e.ctxs {
		ctx.comm = e.commTgts[e.commOffs[v]:e.commOffs[v+1]]
		ctx.input = inTgts[inOffs[v]:inOffs[v+1]]
	}
	if e.flt != nil {
		e.flt.resizeEdges(len(e.queues))
	}
	return nil
}

// clearRun is Rebind's rewind of the run state: drain active
// channels, bump the epoch (invalidating every stamp in O(1)), take cfg's
// run settings, re-seed the node contexts and zero the metrics, keeping
// every slab allocation. It reports whether cfg asks for a different shard
// count, whose plan the caller re-cuts on the now drained engine.
func (e *Engine) clearRun(nodes []Node, cfg Config) (recut bool) {
	e.eachActive(func(c int32) { e.queues[c] = spanQueue{} })
	for s := range e.recvBits {
		e.eachReceiver(s, func(v int32) { e.nactive[v] = 0 })
		clear(e.recvBits[s])
		e.shardSched[s] = e.shardSched[s][:0]
		e.stagedBcast[s] = e.stagedBcast[s][:0]
	}
	for i := range e.staging {
		e.staging[i] = e.staging[i][:0]
	}
	e.queuedWords = 0
	for _, u := range e.bcastActive {
		e.bcastQ[u] = spanQueue{}
	}
	e.bcastActive = e.bcastActive[:0]
	for _, a := range e.arenas {
		a.clear()
	}
	e.epoch++
	e.nodes = nodes
	recut = cfg.Shards != e.cfg.Shards
	e.cfg = cfg
	for v, ctx := range e.ctxs {
		if ctx.rng != nil {
			ctx.rng.Seed(nodeSeed(cfg.Seed, v)) // also drops Read's buffered bytes
		} else {
			ctx.src.Seed(nodeSeed(cfg.Seed, v))
		}
		ctx.banw = cfg.BandwidthWords
		ctx.outputs = ctx.outputs[:0]
		ctx.seenOut = 0
		ctx.wake = 0
		ctx.done = false
		ctx.wordsSent = 0
		e.consumeInbox(int32(v))
	}
	e.hooks = Hooks{}
	e.metrics.Rounds = 0
	e.metrics.ActiveRounds = 0
	e.metrics.MessagesDelivered = 0
	e.metrics.WordsDelivered = 0
	e.metrics.FastForwardedRounds = 0
	e.metrics.Faults = FaultMetrics{}
	clear(e.metrics.PerNodeWordsRecv)
	clear(e.metrics.PerNodeWordsSent)
	e.flt.clearRun()
	e.round = 0
	e.started = false
	// Scheduling state: all contexts were just marked not-done above, and
	// the wheel restarts empty; initNodes re-seeds every node's entry (the
	// -1 sentinel guarantees the seeding push fires even when the new wake
	// equals the previous run's).
	e.notDone = len(e.nodes)
	clear(e.doneMark)
	for v := range e.nextWake {
		e.nextWake[v] = -1
	}
	e.nextReady = e.nextReady[:0]
	e.wheel.reset()
	return recut
}

// nextEventRound returns the earliest round at which anything can happen:
// the current round when any channel still has queued words, otherwise the
// earliest wake-wheel round, otherwise maxInt (nothing will ever happen
// again). Activity scheduler only — stale wheel entries make the result a
// lower bound, which is the safe direction.
func (e *Engine) nextEventRound() int {
	// nextReady nodes are due at the next step — the round counter has
	// already advanced past the merge that recorded them.
	if len(e.nextReady) > 0 || e.queuedWords > 0 {
		return e.round
	}
	r := maxInt
	if w, ok := e.wheel.min(); ok {
		r = w
	}
	// A pending crash is an event too: fast-forwarding past it would let
	// the activity scheduler kill later than the dense reference.
	if cr := e.nextCrashRound(); cr < r {
		r = cr
	}
	if r == maxInt {
		return maxInt
	}
	if r < e.round {
		return e.round
	}
	return r
}

const maxInt = int(^uint(0) >> 1)

// advance performs one unit of progress toward limit (an exclusive round
// bound): a full step when anything is due at the current round, and
// always under SchedulerDense, otherwise an idle fast-forward. Idle rounds
// are observably identical to dense steps: when a Round hook is installed
// they are emitted one at a time as zero-delta calls (so hook streams — and
// cancellation points, which callers poll between advance calls — match
// the dense reference exactly);
// when nobody listens the round counter jumps to the next event in O(1).
// Either way Metrics.Rounds, Round() and ActiveRounds evolve exactly as if
// every idle round had been stepped, and the skipped work is recorded in
// Metrics.FastForwardedRounds.
func (e *Engine) advance(limit int) {
	next := e.round
	if e.cfg.Scheduler != SchedulerDense {
		next = e.nextEventRound()
	}
	if next <= e.round {
		e.stepSharded()
		return
	}
	if next > limit {
		next = limit
	}
	if e.hooks.Round != nil {
		e.hooks.Round(e.round, RoundDelta{})
		e.round++
		e.metrics.Rounds = e.round
		e.metrics.FastForwardedRounds++
		return
	}
	e.metrics.FastForwardedRounds += next - e.round
	e.round = next
	e.metrics.Rounds = e.round
}

// Run executes exactly `rounds` rounds (after Init on first call).
func (e *Engine) Run(rounds int) {
	e.initNodes()
	limit := e.round + rounds
	for e.round < limit {
		e.advance(limit)
	}
}

// RunContext is Run with cancellation: the context is polled at every round
// boundary — the only interruption points — so a cancelled run always stops
// on a complete round and its state (outputs, metrics, Round()) is exactly
// the corresponding prefix of the uncancelled run for the same seed.
// Returns ctx.Err() when cancelled, nil after all rounds.
func (e *Engine) RunContext(ctx context.Context, rounds int) error {
	done := ctx.Done()
	if done == nil {
		e.Run(rounds)
		return nil
	}
	e.initNodes()
	limit := e.round + rounds
	for e.round < limit {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		e.advance(limit)
	}
	return nil
}

// RunUntilQuiescent executes rounds until every node is done and all
// channels are empty, or until Config.MaxRounds (returning ErrMaxRounds).
func (e *Engine) RunUntilQuiescent() error {
	return e.RunUntilQuiescentContext(context.Background())
}

// RunUntilQuiescentContext is RunUntilQuiescent with cancellation at round
// boundaries (same contract as RunContext).
func (e *Engine) RunUntilQuiescentContext(ctx context.Context) error {
	e.initNodes()
	done := ctx.Done()
	for {
		if e.quiescent() {
			return nil
		}
		if e.round >= e.cfg.MaxRounds {
			return ErrMaxRounds
		}
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		e.advance(e.cfg.MaxRounds)
	}
}

// quiescent reports that every node is done and all channels are drained.
// The activity scheduler answers from the maintained notDone counter in
// O(1); the dense reference keeps the original O(n) context scan so the two
// cross-check each other in the differential tests.
func (e *Engine) quiescent() bool {
	if e.queuedWords > 0 {
		return false
	}
	if e.cfg.Scheduler == SchedulerDense {
		for v, ctx := range e.ctxs {
			if !ctx.done && !e.isDead(v) {
				return false
			}
		}
		return true
	}
	return e.notDone == 0
}

// PendingWords reports the words still queued on all channels (0 once all
// phases drained — asserted by tests at phase boundaries).
func (e *Engine) PendingWords() int { return int(e.queuedWords) }

// Round returns the number of rounds executed so far.
func (e *Engine) Round() int { return e.round }

// FastForwardedRounds returns Metrics().FastForwardedRounds in O(1),
// without copying the per-node metric slabs.
func (e *Engine) FastForwardedRounds() int { return e.metrics.FastForwardedRounds }

// Metrics returns a copy of the run metrics, per-node slabs included.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.PerNodeWordsRecv = append([]int64(nil), e.metrics.PerNodeWordsRecv...)
	m.PerNodeWordsSent = append([]int64(nil), e.metrics.PerNodeWordsSent...)
	return m
}

// Outputs returns each node's output set T_i. The outer slice is indexed by
// node id; inner slices are in output order.
func (e *Engine) Outputs() [][]graph.Triangle {
	out := make([][]graph.Triangle, len(e.ctxs))
	for v, ctx := range e.ctxs {
		out[v] = append([]graph.Triangle(nil), ctx.outputs...)
	}
	return out
}
