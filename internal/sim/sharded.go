package sim

import (
	"runtime"
	"slices"
)

// Sharded engine (Config.Shards > 1): the nodes are statically partitioned
// into S contiguous shards cut by degree weight, and every per-node phase of
// the round runs shard-at-a-time — one shard per worker-pool goroutine when
// GOMAXPROCS > 1 and the phase moves at least parallelMinWords words,
// sequentially in ascending shard order otherwise, with bit-identical
// results either way. This is the engine's only parallel code.
//
// Ownership discipline: shard s owns the nodes in
// [shardBounds[s], shardBounds[s+1]) and with them their contexts, their
// inboxes, their entries in shardRecv and shardSched, the receiver side of
// their in-channels (recvActive, recvStamp), and send arena s (see
// arena.go) with the queues of their out-channels — a channel's queue is
// indexed by its sender's CSR slot — and broadcast queues. The sender's
// shard appends words and links spans; the receiver's shard pops them,
// reading but never writing the sender's arena; and the barrier between
// the phases orders the two. Every fan-out below touches only owner state,
// so no phase needs locks; determinism comes from ordering, not
// synchronization.
//
// The one cross-shard data flow is activation: sender v in shard s linking
// a span onto an empty queue must add that channel to its receiver's active
// list, and receivers live in arbitrary shards. The single-shard engine
// does this on the sequential spine in ascending sender order (flushLog),
// which is the determinism contract's source of per-receiver delivery
// order. The sharded engine reproduces exactly that order with a shard
// barrier: during the merge fan-out each sender shard s walks its send log
// and stages every channel it activates in staging[s*S+t] (t = receiver's
// shard) — senders ascending within s, channels in send order — and after
// the barrier each receiver shard t drains columns s = 0..S-1 in ascending
// order. Shards are contiguous and ascending, so "ascending shard, then
// ascending sender within shard" is exactly "ascending sender": every
// recvActive list receives its edge ids in the same order as the
// single-shard spine, and the delivery phase reading those lists reproduces
// identical inboxes. Scheduled sets get the same treatment: per-shard lists
// sorted at the start of the compute fan-out concatenate (shard 0, 1, ...)
// to the globally sorted order, so node visitation, output emission and
// hook streams match the single-shard engine bit for bit.

// initShards (re)computes the static shard plan for the current topology and
// builds the per-shard state. Called from NewEngine and again from Rebind —
// degree weights move with the graph. The requested count is a maximum:
// weightedShards never cuts an empty shard, and a plan that collapses to one
// shard falls back to the single-shard engine.
func (e *Engine) initShards() {
	n := len(e.nodes)
	e.nshards = 1
	if n == 0 {
		return
	}
	weights := make([]int64, n)
	total := int64(0)
	for v := 0; v < n; v++ {
		w := int64(1 + e.commOffs[v+1] - e.commOffs[v])
		weights[v] = w
		total += w
	}
	e.shardBounds = weightedShards(e.shardBounds, n, e.cfg.Shards, weights, total)
	S := len(e.shardBounds) - 1
	if S <= 1 {
		return
	}
	e.nshards = S
	if cap(e.shardOf) < n {
		e.shardOf = make([]int32, n)
	}
	e.shardOf = e.shardOf[:n]
	for s := 0; s < S; s++ {
		for v := e.shardBounds[s]; v < e.shardBounds[s+1]; v++ {
			e.shardOf[v] = int32(s)
		}
	}
	e.shardRecv = make([][]int32, S)
	e.shardSched = make([][]int32, S)
	e.staging = make([][]int32, S*S)
	e.stagedBcast = make([][]int32, S)
	e.shardCtr = make([]deliveryShard, S)
	e.shardDeliverFn = e.shardDeliverWork
	e.shardComputeFn = e.shardComputeWork
	e.shardMergeFn = e.shardMergeWork
	e.shardDrainFn = e.shardDrainWork
}

// shardDeliverWork is shard s's delivery phase: snapshot the shard's ready
// receivers into its scheduled list, drain up to B words per active in-edge
// into each receiver's inbox, and compact the receiver list. Touches only
// shard-owned state plus shardCtr[s]. Under faults the pre-delivery
// snapshot is skipped — a faulty delivery can leave an inbox empty — and
// receivers are scheduled from their post-delivery inboxes instead,
// mirroring step()'s faulty path (schedStamp writes stay single-writer:
// the spine stamped broadcast recipients before this fan-out, and shard s
// owns every v it stamps here).
func (e *Engine) shardDeliverWork(s int) {
	if e.flt == nil {
		for _, v := range e.shardRecv[s] {
			if e.schedStamp[v] != e.schedGen {
				e.schedStamp[v] = e.schedGen
				e.shardSched[s] = append(e.shardSched[s], v)
			}
		}
	}
	ctr := &e.shardCtr[s]
	a := e.arenas[s]
	for _, v := range e.shardRecv[s] {
		e.deliverTo(v, ctr, a)
	}
	keep := e.shardRecv[s][:0]
	for _, v := range e.shardRecv[s] {
		if e.flt != nil && len(e.inboxes[v]) > 0 && e.schedStamp[v] != e.schedGen {
			e.schedStamp[v] = e.schedGen
			e.shardSched[s] = append(e.shardSched[s], v)
		}
		if len(e.recvActive[v]) > 0 {
			keep = append(keep, v)
		} else {
			e.recvStamp[v] = 0
		}
	}
	e.shardRecv[s] = keep
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
// broadcast-active senders, then publish the senders' sent-word counters
// and consume their inboxes. The shard's queued-word delta accumulates in
// shardCtr[s].words for the spine to fold. No word is copied; the
// activation bookkeeping itself — the order-sensitive half — is deferred
// to shardDrainWork on the other side of the barrier.
func (e *Engine) shardMergeWork(s int) {
	S := e.nshards
	e.shardCtr[s].words += e.linkLog(e.arenas[s],
		func(eid int32) {
			t := int(e.shardOf[e.commTgts[eid]])
			e.staging[s*S+t] = append(e.staging[s*S+t], eid)
		},
		func(u int32) { e.stagedBcast[s] = append(e.stagedBcast[s], u) })
	e.retireSenders(s)
}

// shardDrainWork is receiver shard t's half of the merge after the
// barrier: drain the staging columns in ascending sender-shard order,
// appending each newly active channel to its receiver's active list — in
// the identical ascending-sender order the single-shard spine produces
// (see the package comment above).
func (e *Engine) shardDrainWork(t int) {
	S := e.nshards
	for s := 0; s < S; s++ {
		row := e.staging[s*S+t]
		for _, eid := range row {
			e.activate(eid, &e.shardRecv[t])
		}
		e.staging[s*S+t] = row[:0]
	}
}

// retireSenders publishes shard s's scheduled nodes' sent-word counters
// and consumes their inboxes, the per-node tail of shard s's merge.
func (e *Engine) retireSenders(s int) {
	for _, v := range e.shardSched[s] {
		e.metrics.PerNodeWordsSent[v] = e.ctxs[v].wordsSent
		e.consumeInbox(v)
	}
}

// stepSharded executes one round of the sharded engine. The phase structure
// mirrors step(), with each per-node phase run shard by shard and a staging
// barrier in the merge:
//
//	spine:  broadcast delivery (senders fan out across shards)
//	shards: ready snapshot + unicast delivery + receiver-list compaction
//	spine:  fold delivery counters; flip arenas if every channel drained;
//	        wake-ups routed to their shards
//	shards: sort scheduled list, run nodes (sends fill shard arenas)
//	shards: link logged spans, stage new channel activations    (merge 1/2)
//	        — barrier —
//	shards: drain staging columns in shard order                (merge 2/2)
//	spine:  fold queued-word deltas, collect broadcast-active senders,
//	        emit outputs + track nodes in ascending order, compact arenas
//	        if sparse, fire Round hook
func (e *Engine) stepSharded() {
	b := e.cfg.BandwidthWords
	S := e.nshards
	msgs0, words0 := e.metrics.MessagesDelivered, e.metrics.WordsDelivered
	usePar := runtime.GOMAXPROCS(0) > 1
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
	// deliveries first, matching the single-shard phase order.
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
				if e.schedStamp[to] != e.schedGen {
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
	// Unicast delivery fan-out: below parallelMinWords queued words the
	// handoff costs more than the work.
	if e.hasActiveRecv() {
		for i := range e.shardCtr {
			e.shardCtr[i] = deliveryShard{}
		}
		if usePar && e.queuedWords >= parallelMinWords {
			e.pool().run(S, e.shardDeliverFn)
		} else {
			for s := 0; s < S; s++ {
				e.shardDeliverFn(s)
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
		if e.flt != nil {
			e.queuedWords -= popped // popped ≠ delivered under faults; see step()
		} else {
			e.queuedWords -= delivered
		}
	}
	e.flipIfDrained()
	if moved {
		e.metrics.ActiveRounds++
	}
	// Wake-ups, routed on the spine into their shard's scheduled list.
	// Crashed nodes are skipped here; wheel entries below self-invalidate
	// through nextWake, which applyDueCrashes reset.
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
			e.shardComputeFn(s)
		}
	}
	// Merge, gated on the channel-words sent this round plus scheduled
	// nodes.
	mergeWork := int64(nsched)
	linked := false
	for _, a := range e.arenas {
		mergeWork += a.sent
		linked = linked || a.log.n > 0
	}
	for i := range e.shardCtr {
		e.shardCtr[i] = deliveryShard{}
	}
	if usePar && mergeWork >= parallelMinWords && nsched > 1 {
		e.pool().run(S, e.shardMergeFn)
		e.pool().run(S, e.shardDrainFn)
	} else {
		for s := 0; s < S; s++ {
			e.shardMergeFn(s)
		}
		for t := 0; t < S; t++ {
			e.shardDrainFn(t)
		}
	}
	for i := range e.shardCtr {
		e.queuedWords += e.shardCtr[i].words
	}
	// Newly broadcast-active senders, ascending shard then ascending sender
	// = ascending sender, the single-shard activation order.
	for s := 0; s < S; s++ {
		e.bcastActive = append(e.bcastActive, e.stagedBcast[s]...)
		e.stagedBcast[s] = e.stagedBcast[s][:0]
	}
	// Output emission and scheduler tracking on the spine, in global
	// ascending node order (per-shard lists are sorted and contiguous).
	for s := 0; s < S; s++ {
		for _, v := range e.shardSched[s] {
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
