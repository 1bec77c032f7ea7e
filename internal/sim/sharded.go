package sim

import (
	"math/bits"
	"runtime"
	"slices"
)

// The round stepper. Every engine has a shard plan: the nodes are
// statically partitioned into S contiguous shards cut by degree weight —
// one shard when Config.Shards <= 1 or under SchedulerDense — and every
// per-node phase of the round runs shard-at-a-time: one shard per
// worker-pool goroutine when S > 1, GOMAXPROCS > 1 and the phase moves at
// least parallelMinWords words, sequentially in ascending shard order
// otherwise, with bit-identical results either way. This is the engine's
// only round function and its only parallel code.
//
// Ownership discipline: shard s owns the nodes in
// [shardBounds[s], shardBounds[s+1]) and with them their contexts, their
// inboxes, their entries in recvBits and shardSched, their in-channels —
// a channel's queue, active-list entry and arming are indexed by its
// receiver's CSR slot, so they are contiguous per receiver — and send
// arena s (see arena.go) with its broadcast queues. The sender's shard
// appends words to its arena and links spans onto the queues of its
// nodes' out-channels during the merge; the receiver's shard pops them
// during delivery, reading but never writing the sender's arena; and the
// barrier between the phases orders the two. Every fan-out below touches
// only owner state, so no phase needs locks; determinism comes from
// ordering, not synchronization.
//
// The one cross-shard data flow is activation: sender v in shard s linking
// a span onto an empty queue must add that channel to its receiver's active
// list, and receivers live in arbitrary shards. The one-shard plan does
// this on the sequential spine in ascending sender order (flushLog), which
// is the determinism contract's source of per-receiver delivery order.
// With S > 1 the stepper reproduces exactly that order with a shard
// barrier: during the merge fan-out each sender shard s walks its send log
// and stages every channel it activates, with its receiver, in
// staging[s*S+t] (t = receiver's shard) — senders ascending within s,
// channels in send order — and after the barrier each receiver shard t
// drains columns s = 0..S-1 in ascending order. Shards are contiguous and
// ascending, so "ascending shard, then ascending sender within shard" is
// exactly "ascending sender": every active list receives its channels in
// the same order as the one-shard spine, and the delivery phase reading
// those lists reproduces identical inboxes. Delivery itself visits each
// shard's receivers in ascending node order by walking its bitset, so the
// per-node arrays of the delivery and compute phases are read
// sequentially; which receiver is served first is unobservable. Scheduled
// sets get the same treatment as activations: per-shard lists sorted at
// the start of the compute fan-out concatenate (shard 0, 1, ...) to the
// globally sorted order, so node visitation, output emission and hook
// streams match the one-shard plan bit for bit.

// staged is one cross-shard activation: channel c just became active
// toward receiver to.
type staged struct{ c, to int32 }

// initShards (re)computes the shard plan for the current topology and
// shard count and sizes the per-shard state to it. Called from Rebind when
// the run asks for a new shard count or binds a new graph — degree weights
// move with the topology — always on a drained engine. The
// requested count is a maximum: weightedShards never cuts an empty shard,
// and Shards <= 1 gives the one-shard plan. The per-shard lists grow to
// the largest plan the engine has cut and are resliced down for smaller
// ones, so an engine that alternates shard counts reallocates none of
// them: the lists beyond the current plan are empty (clearRun emptied them
// while they were in it), so any of them can serve any shard pair later.
func (e *Engine) initShards() {
	n := len(e.nodes)
	weight := func(v int) int64 { return int64(1 + e.commOffs[v+1] - e.commOffs[v]) }
	e.shardBounds = weightedShards(e.shardBounds, n, e.cfg.Shards, weight, int64(n+len(e.commTgts)))
	S := len(e.shardBounds) - 1
	if cap(e.shardOf) < n {
		e.shardOf = make([]int32, n)
	}
	e.shardOf = e.shardOf[:n]
	for s := 0; s < S; s++ {
		for v := e.shardBounds[s]; v < e.shardBounds[s+1]; v++ {
			e.shardOf[v] = int32(s)
		}
	}
	e.nshards = S
	e.recvBits = regrow(e.recvBits, S)
	e.shardSched = regrow(e.shardSched, S)
	e.staging = regrow(e.staging, S*S)
	e.stagedBcast = regrow(e.stagedBcast, S)
	e.shardCtr = regrow(e.shardCtr, S)
	// The engine is drained here, so every bitset is zero; regrowing one
	// over its capacity exposes only bits cleared before it shrank.
	for s := range S {
		words := int(e.shardBounds[s+1]-e.shardBounds[s]+63) >> 6
		if cap(e.recvBits[s]) < words {
			e.recvBits[s] = make([]uint64, words)
		}
		e.recvBits[s] = e.recvBits[s][:words]
	}
}

// regrow returns xs resliced to n entries. It keeps the entries beyond
// len(xs) that an earlier reslice hid, and grows the backing array only
// when it holds fewer than n.
func regrow[T any](xs []T, n int) []T {
	if cap(xs) < n {
		xs = append(xs[:cap(xs)], make([]T, n-cap(xs))...)
	}
	return xs[:n]
}

// eachReceiver calls fn for every receiver of shard s with an active
// in-channel, in ascending node order.
func (e *Engine) eachReceiver(s int, fn func(v int32)) {
	lo := e.shardBounds[s]
	for i, w := range e.recvBits[s] {
		for ; w != 0; w &= w - 1 {
			fn(lo + int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
}

// eachActive calls fn for every active channel, receivers in ascending
// order and each receiver's channels in activation order.
func (e *Engine) eachActive(fn func(c int32)) {
	for s := range e.recvBits {
		e.eachReceiver(s, func(v int32) {
			lo := e.commOffs[v]
			for _, c := range e.active[lo : lo+e.nactive[v]] {
				fn(c)
			}
		})
	}
}

// shardDeliverWork is shard s's delivery phase: walk the shard's receiver
// bitset in ascending node order, schedule each receiver, drain up to B
// words per active in-channel into its inbox, and clear the bits of
// receivers left with none. Touches only shard-owned state plus
// shardCtr[s]. Under faults a receiver is scheduled after its delivery,
// and only with a non-empty inbox — a faulty delivery can leave it empty —
// the dense reference's criterion (schedStamp writes stay single-writer:
// the spine stamped broadcast recipients before this fan-out, and shard s
// owns every v it stamps here). The dense reference schedules after
// delivery by its own scan, so it takes neither.
func (e *Engine) shardDeliverWork(s int) {
	activity := e.cfg.Scheduler != SchedulerDense
	sched := e.shardSched[s]
	ctr := &e.shardCtr[s]
	a := e.arenas[s]
	lo := e.shardBounds[s]
	recv := e.recvBits[s]
	for i, w := range recv {
		for rest := w; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			v := lo + int32(i<<6+bit)
			if activity && e.flt == nil && e.schedStamp[v] != e.schedGen {
				e.schedStamp[v] = e.schedGen
				sched = append(sched, v)
			}
			e.deliverTo(v, ctr, a)
			if e.flt != nil && activity && len(e.inboxes[v]) > 0 && e.schedStamp[v] != e.schedGen {
				e.schedStamp[v] = e.schedGen
				sched = append(sched, v)
			}
			if e.nactive[v] == 0 {
				w &^= 1 << bit
			}
		}
		recv[i] = w
	}
	e.shardSched[s] = sched
}

// shardComputeWork is shard s's compute phase: sort the shard's scheduled
// list (appends came from the snapshot, broadcast deliveries and wake-ups in
// arbitrary order) and run each node. Contiguous shards make the sorted
// per-shard lists concatenate to the global ascending order.
func (e *Engine) shardComputeWork(s int) {
	sched := e.shardSched[s]
	slices.Sort(sched)
	for _, v := range sched {
		e.nodes[v].Round(e.ctxs[v], e.round, e.inboxes[v])
	}
}

// shardMergeWork is sender shard s's half of the merge before the
// barrier: walk the shard's send log (ascending sender, then send order),
// link every span into its queues, stage each channel that was empty in
// the staging row toward its receiver's shard, collect newly
// broadcast-active senders, then retire the shard's scheduled nodes. The
// shard's queued-word delta accumulates in shardCtr[s].words for the spine
// to fold. No word is copied; the activation bookkeeping itself — the
// order-sensitive half — is deferred to shardDrainWork on the other side
// of the barrier.
func (e *Engine) shardMergeWork(s int) {
	S := e.nshards
	e.shardCtr[s].words += e.linkLog(e.arenas[s],
		func(c, to int32) {
			t := int(e.shardOf[to])
			e.staging[s*S+t] = append(e.staging[s*S+t], staged{c, to})
		},
		func(u int32) { e.stagedBcast[s] = append(e.stagedBcast[s], u) })
	for _, v := range e.shardSched[s] {
		e.retire(v)
	}
}

// shardDrainWork is receiver shard t's half of the merge after the
// barrier: drain the staging columns in ascending sender-shard order,
// appending each newly active channel to its receiver's active list — in
// the identical ascending-sender order the one-shard spine produces (see
// the comment at the top of this file).
func (e *Engine) shardDrainWork(t int) {
	S := e.nshards
	for s := 0; s < S; s++ {
		row := e.staging[s*S+t]
		for _, x := range row {
			e.activate(x.c, x.to)
		}
		e.staging[s*S+t] = row[:0]
	}
}

// retire publishes node v's sent-word counter and consumes its inbox, the
// per-node tail of the merge once v's Round has run.
func (e *Engine) retire(v int32) {
	e.metrics.PerNodeWordsSent[v] = e.ctxs[v].wordsSent
	e.consumeInbox(v)
}

// stepSharded executes one round over the shard plan, each per-node phase
// shard by shard:
//
//	spine:  broadcast delivery (senders fan out across shards)
//	shards: unicast delivery, receivers ascending, each scheduled as served
//	spine:  fold delivery counters; flip arenas if every channel drained;
//	        wake-ups routed to their shards, or the dense reference's scan
//	shards: sort scheduled list, run nodes (sends fill shard arenas)
//	merge, one shard: link the send log on the spine (flushLog)
//	merge, S shards:  shards link logged spans, stage new channel
//	                  activations, retire their nodes       (merge 1/2)
//	                  — barrier —
//	                  shards drain staging columns in order (merge 2/2)
//	                  spine folds queued-word deltas and collects
//	                  broadcast-active senders
//	spine:  emit outputs + track nodes in ascending order (and retire them
//	        on one shard), compact arenas if sparse, fire Round hook
//
// With one shard nothing fans out and no worker pool is built.
func (e *Engine) stepSharded() {
	b := e.cfg.BandwidthWords
	S := e.nshards
	activity := e.cfg.Scheduler != SchedulerDense
	msgs0, words0 := e.metrics.MessagesDelivered, e.metrics.WordsDelivered
	usePar := S > 1 && runtime.GOMAXPROCS(0) > 1
	for _, a := range e.arenas {
		a.scratch.reset() // last round's inboxes are consumed
	}
	if e.flt != nil {
		e.applyDueCrashes()
	}
	e.schedGen++
	// Broadcast deliveries on the spine: one sender reaches inboxes in many
	// shards, so this phase cannot be receiver-sharded without write
	// conflicts; broadcast-mode runs have no unicast traffic to shard
	// anyway. Runs before the shard fan-out so each inbox sees broadcast
	// deliveries first.
	moved := false
	stillBcast := e.bcastActive[:0]
	for _, u := range e.bcastActive {
		if e.flt != nil && e.bcastFaultGate(u) {
			stillBcast = append(stillBcast, u) // delay-armed; nothing pops
			continue
		}
		q := &e.bcastQ[u]
		a := e.arenaOf(u)
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
					t := e.shardOf[to]
					e.shardSched[t] = append(e.shardSched[t], to)
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
	// Unicast delivery, receiver-major: which receiver gets which deliveries
	// in which order is fixed by its active list's activation order. Below
	// parallelMinWords queued words the fan-out costs more than the work.
	if e.queuedWords > 0 {
		clear(e.shardCtr)
		if usePar && e.queuedWords >= parallelMinWords {
			e.pool().run(S, e.shardDeliverFn)
		} else {
			for s := 0; s < S; s++ {
				e.shardDeliverWork(s)
			}
		}
		delivered := int64(0)
		popped := int64(0)
		for i := range e.shardCtr {
			e.metrics.MessagesDelivered += e.shardCtr[i].messages
			delivered += e.shardCtr[i].words
			moved = moved || e.shardCtr[i].moved
			if e.flt != nil {
				popped += e.foldFaultShard(&e.shardCtr[i])
			}
		}
		e.metrics.WordsDelivered += delivered
		// Under faults the queued-word account is debited by the words
		// popped off queues (lost and crash-dropped batches pop without
		// delivering, duplicated ones deliver without popping).
		if e.flt != nil {
			e.queuedWords -= popped
		} else {
			e.queuedWords -= delivered
		}
	}
	e.flipIfDrained()
	if moved {
		e.metrics.ActiveRounds++
	}
	if activity {
		e.routeWakeups()
	} else {
		e.scheduleDense()
	}
	nsched := 0
	for s := 0; s < S; s++ {
		nsched += len(e.shardSched[s])
	}
	// Compute fan-out (each shard sorts its own list first), gated on
	// words delivered this round plus scheduled nodes: a node's Round cost
	// scales with its inbox, plus a constant.
	computeActivity := int64(nsched) + (e.metrics.WordsDelivered - words0)
	if usePar && computeActivity >= parallelMinWords && nsched > 1 {
		e.pool().run(S, e.shardComputeFn)
	} else {
		for s := 0; s < S; s++ {
			e.shardComputeWork(s)
		}
	}
	linked := false
	for _, a := range e.arenas {
		linked = linked || a.log.n > 0
	}
	if S == 1 {
		// The send log is in ascending sender order (the scheduled list is
		// sorted), so linking it in order activates channels exactly as
		// the determinism contract requires.
		e.flushLog(e.arenas[0])
	} else {
		e.mergeShards(usePar, nsched)
	}
	// Output emission and scheduler tracking on the spine, in global
	// ascending node order (per-shard lists are sorted and contiguous).
	for s := 0; s < S; s++ {
		for _, v := range e.shardSched[s] {
			if S == 1 {
				e.retire(v)
			}
			e.emitOutputs(int(v))
			e.trackNode(int(v), e.round+1)
		}
		e.shardSched[s] = e.shardSched[s][:0]
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

// routeWakeups adds this round's wake-ups to their shards' scheduled
// lists, on the spine. Every nextReady entry is due exactly this round and
// cannot have been superseded (its node could not run since it was
// recorded) — except by a crash, which the dead guard catches. Wheel
// entries whose bucket round no longer matches nextWake were superseded by
// a later reschedule, a finish or a crash, and are skipped.
func (e *Engine) routeWakeups() {
	for _, v := range e.nextReady {
		if e.flt != nil && e.flt.dead[v] {
			continue
		}
		if e.schedStamp[v] != e.schedGen {
			e.schedStamp[v] = e.schedGen
			t := e.shardOf[v]
			e.shardSched[t] = append(e.shardSched[t], v)
		}
	}
	e.nextReady = e.nextReady[:0]
	for {
		br, bucket, ok := e.wheel.takeUpTo(e.round)
		if !ok {
			break
		}
		for _, v := range bucket {
			if e.nextWake[v] == br && e.schedStamp[v] != e.schedGen {
				e.schedStamp[v] = e.schedGen
				t := e.shardOf[v]
				e.shardSched[t] = append(e.shardSched[t], v)
			}
		}
		e.wheel.release(bucket)
	}
}

// scheduleDense is the dense reference's scheduling branch: it scans all n
// nodes after delivery and schedules every live node with a non-empty
// inbox or a due wake-up. Dense engines always run on one shard.
func (e *Engine) scheduleDense() {
	sched := e.shardSched[0]
	for v, ctx := range e.ctxs {
		if e.isDead(v) {
			continue // crashed nodes never run (their inboxes stay empty)
		}
		if len(e.inboxes[v]) > 0 || (!ctx.done && ctx.wake <= e.round) {
			sched = append(sched, int32(v))
		}
	}
	e.shardSched[0] = sched
}

// mergeShards is the merge of a plan with S > 1 shards: the sender shards
// link their logs and stage activations, and after the barrier the
// receiver shards drain them. The fan-out is gated on the channel-words
// sent this round plus scheduled nodes.
func (e *Engine) mergeShards(usePar bool, nsched int) {
	S := e.nshards
	mergeWork := int64(nsched)
	for _, a := range e.arenas {
		mergeWork += a.sent
	}
	clear(e.shardCtr)
	if usePar && mergeWork >= parallelMinWords && nsched > 1 {
		e.pool().run(S, e.shardMergeFn)
		e.pool().run(S, e.shardDrainFn)
	} else {
		for s := 0; s < S; s++ {
			e.shardMergeWork(s)
		}
		for t := 0; t < S; t++ {
			e.shardDrainWork(t)
		}
	}
	for i := range e.shardCtr {
		e.queuedWords += e.shardCtr[i].words
	}
	// Newly broadcast-active senders, ascending shard then ascending sender
	// = ascending sender, the one-shard activation order.
	for s := 0; s < S; s++ {
		e.bcastActive = append(e.bcastActive, e.stagedBcast[s]...)
		e.stagedBcast[s] = e.stagedBcast[s][:0]
	}
}
