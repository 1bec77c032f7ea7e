package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

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
	// SchedulerDense is the retained reference stepper: it scans all n nodes
	// every round and never fast-forwards. It exists for differential
	// testing of SchedulerActivity and costs O(n) per round.
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
	// Shards statically partitions the nodes into that many contiguous
	// engine shards (cut by degree weight), each owning its nodes' send
	// arena and channel queues, inboxes and scheduling lists; cross-shard
	// channel activations go through per-(sender-shard, receiver-shard)
	// staging lists drained in ascending shard order, so outputs, metrics,
	// Round(), hook streams and cancellation prefixes are bit-identical to
	// the single-shard engine for every shard count (see DESIGN.md,
	// "Sharded engine & binary CSR").
	// It is the engine's only placement setting: 0 and 1 select the
	// sequential single-shard engine; with more shards, every phase that
	// moves at least parallelMinWords words runs one shard per worker-pool
	// goroutine when GOMAXPROCS > 1, and the shards run in ascending order
	// on the caller's goroutine otherwise, with identical results.
	// Requires the activity scheduler (the default); under SchedulerDense
	// the value is ignored.
	Shards int
	// MaxRounds aborts RunUntilQuiescent (default 1 << 22).
	MaxRounds int
	// Scheduler selects the round scheduler; the zero value is
	// SchedulerActivity, the production path.
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
	return c
}

func (c Config) withDefaults() Config { return c.Normalized() }

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
// newly recorded output; Round fires after each round completes.
//
// Hooks survive until the next Reset/Rebind, which clears them.
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
// Channel state lives in a single flat slab: the communication topology is a
// CSR adjacency (commOffs, commTgts) and the directed channel from u to its
// i-th communication neighbor is slot commOffs[u]+i of every per-edge array
// (queues, edgeFrom). A queue holds spans of the sender shard's send
// arena, never words (see arena.go), and its channel is active iff it is
// non-empty. Active channels are tracked with
// epoch-stamped dense arrays plus compacted lists, so a round touches only
// live state and steady-state rounds allocate nothing.
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

	// Flat per-directed-edge slabs, indexed by eid = commOffs[u]+i.
	queues   []spanQueue
	edgeFrom []int32 // sender u of edge eid

	// Receiver-major active tracking: recvActive[v] lists the active in-edge
	// ids of v in activation order; activeRecv lists receivers with at least
	// one active in-edge. Stamps dedupe insertions; bumping epoch invalidates
	// every stamp at once.
	epoch      uint32
	recvStamp  []uint32
	recvActive [][]int32
	activeRecv []int32

	// queuedWords is the words currently queued on all channels and
	// broadcast queues: the sharded delivery fan-out's gate, the arena
	// flip and compaction trigger, and PendingWords. It is credited at the
	// merge and debited from the folded delivery counters, always on the
	// spine.
	queuedWords int64

	// arenas holds one send arena per shard (one for the single-shard
	// engine): every sent word is stored there once, and queues hold spans
	// of it (see arena.go).
	arenas []*sendArena

	// Broadcast-mode state: one shared outgoing queue per node, and the
	// senders whose queue is non-empty, in activation order.
	bcastQ      []spanQueue
	bcastActive []int32

	inboxes   [][]Delivery
	scheduled []int32 // pooled across rounds
	metrics   Metrics
	hooks     Hooks
	round     int
	started   bool

	// flt is the fault runtime (nil for fault-free engines — every fault
	// branch below is gated on that nil check, which is what keeps the
	// no-plan hot path at its fault-free cost).
	flt *faultState

	// wpool is the persistent worker pool the sharded stepper fans out on,
	// built on first use.
	wpool *workerPool

	// Activity-scheduler state. notDone counts nodes with ctx.done unset
	// (maintained on the sequential spine against doneMark, never from node
	// workers) so quiescent() is O(1); wheel buckets sleeping nodes by wake
	// round; nextWake[v] is the authoritative wake round of node v (-1 when
	// done), used to skip lazily invalidated wheel entries; schedStamp/
	// schedGen dedupe the per-round scheduled list.
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

	// Sharded-engine state (Config.Shards > 1; see stepSharded in
	// sharded.go). Nodes are cut into nshards contiguous ranges
	// (shardBounds, len nshards+1) by degree weight; shardOf maps node to
	// shard. shardRecv/shardSched are the per-shard splits of activeRecv and
	// scheduled; staging[s*nshards+t] holds the channels sender-shard s
	// activated toward receiver-shard t; stagedBcast[s] holds shard s's
	// newly broadcast-active senders; shardCtr carries per-shard counters
	// across the fan-out barriers. All empty/nil when nshards <= 1.
	nshards        int
	shardBounds    []int32
	shardOf        []int32
	shardRecv      [][]int32
	shardSched     [][]int32
	staging        [][]int32
	stagedBcast    [][]int32
	shardCtr       []deliveryShard
	shardDeliverFn func(s int)
	shardComputeFn func(s int)
	shardMergeFn   func(s int)
	shardDrainFn   func(s int)
}

// deliveryShard accumulates one engine shard's delivery-phase counters (the
// single-shard engine uses one); padded to 128 bytes — two cache lines,
// because the adjacent-line hardware prefetcher pairs lines — so shards
// delivering concurrently do not false-share. The fault
// counters (popped through delayed) are written only by deliverToFaulty
// and folded on the spine like the base pair.
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
// algorithm instances. len(nodes) must equal input.N().
func NewEngine(input *graph.Graph, nodes []Node, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	n := input.N()
	if len(nodes) != n {
		return nil, fmt.Errorf("sim: %d nodes for %d-vertex graph", len(nodes), n)
	}
	e := &Engine{
		cfg:   cfg,
		input: input,
		nodes: nodes,
		epoch: 1,
	}
	switch cfg.Mode {
	case ModeClique:
		// CSR offsets are int32; the clique needs n*(n-1) directed-edge slots.
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
	default:
		e.commOffs, e.commTgts = input.CSR()
	}
	ne := len(e.commTgts) // directed channel count
	e.queues = make([]spanQueue, ne)
	e.edgeFrom = make([]int32, ne)
	for v := 0; v < n; v++ {
		for eid := e.commOffs[v]; eid < e.commOffs[v+1]; eid++ {
			e.edgeFrom[eid] = int32(v)
		}
	}
	e.recvStamp = make([]uint32, n)
	e.recvActive = make([][]int32, n)
	if cfg.Mode == ModeBroadcast {
		e.bcastQ = make([]spanQueue, n)
	}
	inOffs, inTgts := input.CSR()
	e.ctxs = make([]*Context, n)
	for v := 0; v < n; v++ {
		e.ctxs[v] = &Context{
			id:        v,
			n:         n,
			banw:      cfg.BandwidthWords,
			src:       nodeStream{seed: uint64(nodeSeed(cfg.Seed, v))},
			comm:      e.commTgts[e.commOffs[v]:e.commOffs[v+1]],
			input:     inTgts[inOffs[v]:inOffs[v+1]],
			bcastOnly: cfg.Mode == ModeBroadcast,
		}
	}
	e.inboxes = make([][]Delivery, n)
	e.notDone = n
	e.doneMark = make([]bool, n)
	e.nextWake = make([]int, n)
	for v := range e.nextWake {
		e.nextWake[v] = -1 // no wheel entry yet; initNodes seeds them
	}
	e.schedStamp = make([]uint64, n)
	e.metrics = Metrics{
		WordBits:         WordBits(n),
		PerNodeWordsRecv: make([]int64, n),
		PerNodeWordsSent: make([]int64, n),
	}
	if cfg.Shards > 1 {
		e.initShards()
	}
	e.bindArenas()
	if !cfg.Faults.Empty() {
		flt, err := newFaultState(cfg.Faults, n, len(e.queues), cfg.Mode == ModeBroadcast)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		e.flt = flt
	}
	return e, nil
}

// nodeSeed mixes the engine seed with the node id (splitmix64 finalizer) so
// per-node streams are independent and engine-order independent.
func nodeSeed(seed int64, id int) int64 {
	return int64(mix64(uint64(seed)+golden*uint64(id+1)) & math.MaxInt64)
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
// Triangle hook. Called only on the sequential spine (init loop and merge
// phase), in ascending node order, so the emission order is deterministic.
func (e *Engine) emitOutputs(v int) {
	if e.hooks.Triangle == nil {
		return
	}
	ctx := e.ctxs[v]
	for _, t := range ctx.outputs[ctx.seenOut:] {
		e.hooks.Triangle(v, t)
	}
	ctx.seenOut = len(ctx.outputs)
}

// deliverTo drains up to B words from every active in-edge of receiver v
// into v's inbox. It touches only v-owned state (v's inbox, v's in-edge
// queues and active list, v's recv counter), the scratch of v's shard
// arena a and the caller's counters, so engine shards can deliver to
// their own receivers concurrently. Senders' arenas are only read.
func (e *Engine) deliverTo(v int32, shard *deliveryShard, a *sendArena) {
	if e.flt != nil {
		e.deliverToFaulty(v, shard, a)
		return
	}
	b := e.cfg.BandwidthWords
	keep := e.recvActive[v][:0]
	for _, eid := range e.recvActive[v] {
		q := &e.queues[eid]
		from := e.edgeFrom[eid]
		ws := a.pop(q, e.arenaOf(from), b)
		e.inboxes[v] = append(e.inboxes[v], Delivery{From: int(from), Words: ws})
		shard.messages++
		shard.words += int64(len(ws))
		e.metrics.PerNodeWordsRecv[v] += int64(len(ws))
		shard.moved = true
		if q.n != 0 {
			keep = append(keep, eid)
		}
	}
	e.recvActive[v] = keep
}

// step executes one round of the single-shard engine: deliver up to B
// words on each active channel (receiver-major), then run every scheduled
// node, then flush sends in node order, all sequentially. Sharded engines
// step through stepSharded instead.
//
// Under SchedulerActivity the scheduled set is assembled from activity
// alone: every receiver in this round's delivery sets (which all get at
// least one word — an active channel always has a non-empty queue) plus the
// wake-wheel bucket for this round, deduplicated by schedStamp and sorted
// ascending so the merge phase visits nodes in the same deterministic order
// as the dense scan.
func (e *Engine) step() {
	b := e.cfg.BandwidthWords
	msgs0, words0 := e.metrics.MessagesDelivered, e.metrics.WordsDelivered
	activity := e.cfg.Scheduler != SchedulerDense
	a := e.arenas[0]
	a.scratch.reset() // last round's inboxes are consumed
	if e.flt != nil {
		e.applyDueCrashes()
	}
	scheduled := e.scheduled[:0]
	if activity {
		e.schedGen++
		if e.flt == nil {
			// Ready snapshot: every receiver with an active in-edge gets a
			// delivery this round. Taken before deliverTo compacts the
			// list. Under faults this assumption breaks (loss, delay and
			// dead receivers can leave an inbox empty), so the faulty path
			// schedules from post-delivery inboxes instead — the dense
			// reference's criterion — during the compaction loop below.
			for _, v := range e.activeRecv {
				if e.schedStamp[v] != e.schedGen {
					e.schedStamp[v] = e.schedGen
					scheduled = append(scheduled, v)
				}
			}
		}
	}
	// Phase 1: deliveries.
	moved := false
	// Broadcast-mode: each active node emits one B-word message heard by
	// every neighbor. A sender fans out to many inboxes, so this path stays
	// sequential; broadcast mode never has unicast traffic (Send panics).
	stillBcast := e.bcastActive[:0]
	for _, u := range e.bcastActive {
		if e.flt != nil && e.bcastFaultGate(u) {
			stillBcast = append(stillBcast, u) // delay-armed; nothing pops
			continue
		}
		q := &e.bcastQ[u]
		ws := a.pop(q, a, b)
		if len(ws) > 0 {
			nw := int64(len(ws))
			e.queuedWords -= nw
			for _, to := range e.commTgts[e.commOffs[u]:e.commOffs[u+1]] {
				if f := e.flt; f != nil {
					if f.dead[to] {
						e.metrics.Faults.WordsDroppedCrash += nw
						continue
					}
					if f.hasLoss && f.comp.Lose(e.round, int(u), int(to)) {
						e.metrics.Faults.WordsLost += nw
						continue
					}
				}
				e.inboxes[to] = append(e.inboxes[to], Delivery{From: int(u), Words: ws})
				e.metrics.MessagesDelivered++
				e.metrics.WordsDelivered += nw
				e.metrics.PerNodeWordsRecv[to] += nw
				if activity && e.schedStamp[to] != e.schedGen {
					e.schedStamp[to] = e.schedGen
					scheduled = append(scheduled, to)
				}
				if f := e.flt; f != nil && f.hasDup && f.comp.Duplicate(e.round, int(u), int(to)) {
					e.inboxes[to] = append(e.inboxes[to], Delivery{From: int(u), Words: ws})
					e.metrics.MessagesDelivered++
					e.metrics.WordsDelivered += nw
					e.metrics.PerNodeWordsRecv[to] += nw
					e.metrics.Faults.WordsDuplicated += nw
				}
			}
			moved = true
		}
		if q.n != 0 {
			stillBcast = append(stillBcast, u)
		} else if f := e.flt; f != nil && f.hasDelay {
			f.bcastArmStamp[u] = 0
		}
	}
	e.bcastActive = stillBcast
	// Unicast channels, receiver-major: which receiver gets which
	// deliveries in which order is fixed by recvActive's activation order.
	if len(e.activeRecv) > 0 {
		var shard deliveryShard
		for _, v := range e.activeRecv {
			e.deliverTo(v, &shard, a)
		}
		e.metrics.MessagesDelivered += shard.messages
		e.metrics.WordsDelivered += shard.words
		moved = moved || shard.moved
		// Under faults the queued-word account is debited by the words
		// popped off queues (lost and crash-dropped batches pop without
		// delivering, duplicated ones deliver without popping).
		if e.flt != nil {
			e.queuedWords -= e.foldFaultShard(&shard)
		} else {
			e.queuedWords -= shard.words
		}
	}
	// Compact the receiver list sequentially (preserves activation order).
	// The faulty activity path also schedules receivers here, from their
	// post-delivery inboxes (broadcast deliveries were stamped above).
	stillRecv := e.activeRecv[:0]
	for _, v := range e.activeRecv {
		if e.flt != nil && activity && len(e.inboxes[v]) > 0 && e.schedStamp[v] != e.schedGen {
			e.schedStamp[v] = e.schedGen
			scheduled = append(scheduled, v)
		}
		if len(e.recvActive[v]) > 0 {
			stillRecv = append(stillRecv, v)
		} else {
			e.recvStamp[v] = 0
		}
	}
	e.activeRecv = stillRecv
	e.flipIfDrained()
	if moved {
		e.metrics.ActiveRounds++
	}
	// Phase 2: schedule and run nodes.
	if activity {
		// Fast-path wake-ups: every nextReady entry is due exactly this
		// round and cannot have been superseded (its node could not run
		// since it was recorded) — except by a crash, which the dead guard
		// catches (wheel entries are invalidated via nextWake instead).
		for _, v := range e.nextReady {
			if e.flt != nil && e.flt.dead[v] {
				continue
			}
			if e.schedStamp[v] != e.schedGen {
				e.schedStamp[v] = e.schedGen
				scheduled = append(scheduled, v)
			}
		}
		e.nextReady = e.nextReady[:0]
		// Wake-wheel pops: nodes whose authoritative wake is due. Entries
		// whose bucket round no longer matches nextWake were superseded by a
		// later reschedule (or the node finished) and are skipped.
		for {
			br, bucket, ok := e.wheel.takeUpTo(e.round)
			if !ok {
				break
			}
			for _, v := range bucket {
				if e.nextWake[v] == br && e.schedStamp[v] != e.schedGen {
					e.schedStamp[v] = e.schedGen
					scheduled = append(scheduled, v)
				}
			}
			e.wheel.release(bucket)
		}
		slices.Sort(scheduled)
	} else {
		for v := 0; v < len(e.nodes); v++ {
			if e.flt != nil && e.flt.dead[v] {
				continue // crashed nodes never run (their inboxes stay empty)
			}
			ctx := e.ctxs[v]
			if ctx.done && len(e.inboxes[v]) == 0 {
				continue
			}
			if len(e.inboxes[v]) > 0 || ctx.wake <= e.round {
				scheduled = append(scheduled, int32(v))
			}
		}
	}
	e.scheduled = scheduled
	for _, v := range scheduled {
		e.nodes[v].Round(e.ctxs[v], e.round, e.inboxes[v])
	}
	// Phase 3: merge. The send log is in ascending sender order (scheduled
	// is sorted), so linking it in order activates channels exactly as
	// the determinism contract requires.
	linked := a.log.n > 0
	e.flushLog(a)
	for _, v := range scheduled {
		e.metrics.PerNodeWordsSent[v] = e.ctxs[v].wordsSent
		e.emitOutputs(int(v))
		e.consumeInbox(v)
		e.trackNode(int(v), e.round+1)
	}
	e.compactIfSparse(linked)
	e.round++
	e.metrics.Rounds = e.round
	if e.hooks.Round != nil {
		e.hooks.Round(e.round-1, RoundDelta{
			Messages: e.metrics.MessagesDelivered - msgs0,
			Words:    e.metrics.WordsDelivered - words0,
			Moved:    moved,
		})
	}
}

// consumeInbox empties node v's inbox after its Round call, zeroing the
// entries so their word slices pin no arena or scratch memory.
func (e *Engine) consumeInbox(v int32) {
	clear(e.inboxes[v])
	e.inboxes[v] = e.inboxes[v][:0]
}

// Reset rewinds the engine for a fresh run over the same graph and
// topology: a new node set, a new seed, zeroed metrics, empty channels and
// empty send arenas (both halves), while every slab (queues, stamps,
// lists, inboxes, arena chunks) keeps its capacity. Bumping the epoch
// invalidates all receiver stamps in O(1); only channels that were still
// active have queued words to discard, so resetting a drained engine is
// O(n). Repeated runs (benchmark
// loops, repetition-amplified algorithms) reuse one engine allocation-free.
func (e *Engine) Reset(nodes []Node, seed int64) error {
	if len(nodes) != len(e.nodes) {
		return fmt.Errorf("sim: reset with %d nodes for %d-vertex graph", len(nodes), len(e.nodes))
	}
	e.clearRun(nodes, seed)
	return nil
}

// Input returns the input graph the engine currently simulates.
func (e *Engine) Input() *graph.Graph { return e.input }

// Config returns the engine's resolved configuration (defaults applied;
// Seed reflects the current run after Reset/Rebind).
func (e *Engine) Config() Config { return e.cfg }

// Rebind re-points the engine at a NEW input graph over the same vertex
// set — the dynamic-graph epoch-snapshot path — and rewinds it for a fresh
// run like Reset. The per-channel slabs are resized to the new topology
// reusing their capacity, so rebinding across snapshots of comparable
// density allocates little to nothing: only growth beyond any previously
// seen edge count pays. In clique mode the communication topology does not
// depend on the input edges, so only the per-node input views change.
func (e *Engine) Rebind(input *graph.Graph, nodes []Node, seed int64) error {
	n := len(e.nodes)
	if input.N() != n {
		return fmt.Errorf("sim: rebind to %d-vertex graph on %d-vertex engine", input.N(), n)
	}
	if len(nodes) != n {
		return fmt.Errorf("sim: rebind with %d nodes for %d-vertex graph", len(nodes), n)
	}
	// Drain channel state while the edge ids still mean what the queues
	// think they mean; after the swap the old active lists would index the
	// wrong channels.
	e.clearRun(nodes, seed)
	e.input = input
	inOffs, inTgts := input.CSR()
	if e.cfg.Mode != ModeClique {
		e.commOffs, e.commTgts = inOffs, inTgts
		ne := len(e.commTgts)
		// Every queue is empty after clearRun, including ones a previous
		// rebind sliced away, so the slab regrows over its capacity as is.
		if cap(e.queues) < ne {
			e.queues = make([]spanQueue, ne)
			e.edgeFrom = make([]int32, ne)
		}
		e.queues = e.queues[:ne]
		e.edgeFrom = e.edgeFrom[:ne]
		for v := 0; v < n; v++ {
			for eid := e.commOffs[v]; eid < e.commOffs[v+1]; eid++ {
				e.edgeFrom[eid] = int32(v)
			}
		}
	}
	for v, ctx := range e.ctxs {
		ctx.comm = e.commTgts[e.commOffs[v]:e.commOffs[v+1]]
		ctx.input = inTgts[inOffs[v]:inOffs[v+1]]
	}
	if e.flt != nil {
		e.flt.resizeEdges(len(e.queues))
	}
	if e.cfg.Shards > 1 {
		// Degree weights changed with the topology; recut the shard plan
		// and re-point the contexts at their new shards' arenas.
		e.initShards()
		e.bindArenas()
	}
	return nil
}

// clearRun is the shared rewind behind Reset and Rebind: drain active
// channels, bump the epoch (invalidating every stamp in O(1)), re-seed the
// node contexts and zero the metrics, keeping every slab allocation.
func (e *Engine) clearRun(nodes []Node, seed int64) {
	for _, v := range e.activeRecv {
		for _, eid := range e.recvActive[v] {
			e.queues[eid] = spanQueue{}
		}
		e.recvActive[v] = e.recvActive[v][:0]
	}
	e.activeRecv = e.activeRecv[:0]
	for s := range e.shardRecv {
		for _, v := range e.shardRecv[s] {
			for _, eid := range e.recvActive[v] {
				e.queues[eid] = spanQueue{}
			}
			e.recvActive[v] = e.recvActive[v][:0]
		}
		e.shardRecv[s] = e.shardRecv[s][:0]
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
	e.cfg.Seed = seed
	for v, ctx := range e.ctxs {
		if ctx.rng != nil {
			ctx.rng.Seed(nodeSeed(seed, v)) // also drops Read's buffered bytes
		} else {
			ctx.src.Seed(nodeSeed(seed, v))
		}
		ctx.outputs = ctx.outputs[:0]
		ctx.seenOut = 0
		ctx.wake = 0
		ctx.offset = 0
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
}

// nextEventRound returns the earliest round at which anything can happen:
// the current round when any channel still has queued words, otherwise the
// earliest wake-wheel round, otherwise maxInt (nothing will ever happen
// again). Activity scheduler only — stale wheel entries make the result a
// lower bound, which is the safe direction.
func (e *Engine) nextEventRound() int {
	// nextReady nodes are due at the next step — the round counter has
	// already advanced past the merge that recorded them.
	if len(e.nextReady) > 0 || e.hasActiveRecv() || len(e.bcastActive) > 0 {
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
// bound): a full step when anything is due at the current round, otherwise
// an idle fast-forward. Idle rounds are observably identical to dense
// steps: when a Round hook is installed they are emitted one at a time as
// zero-delta calls (so hook streams — and cancellation points, which
// callers poll between advance calls — match the dense stepper exactly);
// when nobody listens the round counter jumps to the next event in O(1).
// Either way Metrics.Rounds, Round() and ActiveRounds evolve exactly as if
// every idle round had been stepped, and the skipped work is recorded in
// Metrics.FastForwardedRounds.
func (e *Engine) advance(limit int) {
	if e.cfg.Scheduler == SchedulerDense {
		e.step()
		return
	}
	next := e.nextEventRound()
	if next <= e.round {
		if e.nshards > 1 {
			e.stepSharded()
		} else {
			e.step()
		}
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
	if e.hasActiveRecv() || len(e.bcastActive) > 0 {
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

// hasActiveRecv reports whether any receiver has an active in-edge,
// whichever representation — the global list or the per-shard split — the
// engine maintains.
func (e *Engine) hasActiveRecv() bool {
	if e.nshards > 1 {
		for s := range e.shardRecv {
			if len(e.shardRecv[s]) > 0 {
				return true
			}
		}
		return false
	}
	return len(e.activeRecv) > 0
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

// OutputUnion returns the deduplicated union of all nodes' outputs (the
// paper's combined output T).
func (e *Engine) OutputUnion() graph.TriangleSet {
	s := make(graph.TriangleSet)
	for _, ctx := range e.ctxs {
		for _, t := range ctx.outputs {
			s.Add(t)
		}
	}
	return s
}
