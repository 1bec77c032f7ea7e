package sim

import "math"

// Store-once send path. Every sent word is written exactly once, into the
// payload arena of the sender's shard (a one-shard plan has one arena),
// and channels queue spans of that arena instead of copies:
//
//   - Context.Send and Context.Broadcast append the words to the shard's
//     active half and a sendRec to its send log. A unicast-mode Broadcast
//     logs one record, and all deg(v) channels link the same span.
//   - The merge walks the log in send order — ascending sender, then the
//     sender's own call order — and links each record's span into its
//     channel queues, found through the reverse-slot index (twin). No word
//     is copied. A channel whose queue was empty becomes active: it joins
//     its receiver's active list, which with more than one shard the
//     receiver's shard appends to from a staged list of channels (see
//     sharded.go).
//   - A channel queue (and a broadcast-mode sender queue) is a pointer-free
//     FIFO of spans of its sender shard's active half: the head span sits
//     inline in the queue entry and any further spans in that shard's span
//     slab, so a span is just (offset, length). Delivery pops and follows
//     the chain without writing the sender's arena; the slab is reclaimed
//     wholesale with the words.
//   - A pop of up to B words returns a view of the arena itself; only a pop
//     that crosses from one span into the next, or from one storage chunk
//     into the next, gathers its words into the popping shard's scratch.
//     Either way a pop's work and memory scale with the words it takes,
//     never with B, so any bandwidth is safe.
//
// Every arena store (both halves, the log, the slab and the scratch) is
// chunked (see chunked.go): it grows by whole chunks and never copies
// itself, so the first runs on a large graph leave no garbage behind, and
// Reset keeps every chunk.
//
// Reclaiming space: the arena is double-buffered. When a delivery phase
// leaves every channel empty, each shard flips halves in O(1) and empties
// its slab: the retired half stays readable for this round's inboxes, and
// the next flip empties it. Runs whose channels never all drain are bounded
// by compaction: after a merge that linked words, when the arenas' words
// and slab spans exceed twice the queued words plus compactSlack, the spine
// copies every queued word into its sender shard's spare half, rewrites
// each queue as one span and flips. Only merges can grow the arenas, so
// checking after them keeps the load within twice the peak queued words
// plus compactSlack at all times, and a phase that only drains is never
// compacted: it would copy words about to be delivered, and the spare half
// would grow to hold them.

// sendRec is one send-log entry: n words queued toward nbr, which is a
// communication-neighbour index, bcastIdx for a broadcast-mode emission or
// allIdx for a unicast-mode Broadcast. A sender's records follow a header
// {nbr: senderMark, n: sender id}. Sends append their words to the active
// half in log order from logBase on, so each record's words start where
// the previous record's end and the log stores no offsets.
type sendRec struct {
	nbr int32
	n   uint32
}

const (
	// allIdx marks a unicast-mode Broadcast: one span queued on every
	// channel of the sender.
	allIdx = -2
	// senderMark marks a log header naming the sender of the records
	// that follow.
	senderMark = -3
)

// spanQueue is a FIFO of arena spans. The head span is words
// [off, off+n) of the sender shard's active half; n == 0 iff the queue is
// empty, and a channel is active iff its queue is non-empty. next and tail
// index the first and last overflow span in the sender shard's slab (0,
// the slab's sentinel, = none).
type spanQueue struct {
	off, n     uint32
	next, tail int32
}

// spanLink is one overflow span in a shard's slab, chained through next.
type spanLink struct {
	off, n uint32
	next   int32
}

// compactSlack is the constant of the compaction rule: the arenas may hold
// up to twice the queued words plus this many words and spans before the
// spine compacts them.
const compactSlack = 1 << 16

// sendArena is one engine shard's store of sent words. The first block is
// written by the shard itself during compute and merge, and read by every
// shard during delivery; the scratch is written only by the shard itself
// during delivery. Padding keeps the two blocks, and neighbouring arenas,
// on separate cache-line pairs.
type sendArena struct {
	words   chunked[Word]     // active half: this phase's sends and every queued span
	spare   chunked[Word]     // retired half: readable until the next flip
	log     chunked[sendRec]  // sends since the last merge, in send order
	spans   chunked[spanLink] // overflow spans of this shard's queues; spans[0] is a sentinel
	logBase uint32            // offset in words of the log's first send
	logFrom int32             // sender of the log's last header
	sent    int64             // channel-words logged since the last merge (merge gate)
	_       [80]byte

	scratch chunked[Word] // pops that crossed a span or chunk boundary, this round
	_       [88]byte
}

func newSendArena() *sendArena {
	a := &sendArena{}
	a.spans.push(spanLink{})
	return a
}

// record appends words to the active half once and logs the send; copies
// is the number of channels the span will be queued on, which is what the
// sender's sent-words counter is charged.
func (c *Context) record(nbr int32, words []Word, copies int) {
	a := c.arena
	if a.words.n > math.MaxUint32-len(words) {
		panic("sim: shard send arena exceeds 2^32 words")
	}
	if a.log.n == 0 {
		a.logBase = uint32(a.words.n)
	}
	if a.log.n == 0 || a.logFrom != int32(c.id) {
		a.logFrom = int32(c.id)
		a.log.push(sendRec{nbr: senderMark, n: uint32(c.id)})
	}
	a.words.add(words)
	a.log.push(sendRec{nbr: nbr, n: uint32(len(words))})
	sent := int64(len(words) * copies)
	c.wordsSent += sent
	a.sent += sent
}

// push appends the span [off, off+n) to q, one of this shard's queues,
// extending the last span in place when the new one follows it directly
// in the arena. It reports whether q was empty — whether its channel just
// became active.
func (a *sendArena) push(q *spanQueue, off, n uint32) bool {
	switch {
	case q.n == 0:
		q.off, q.n = off, n
		return true
	case q.next == 0:
		if q.off+q.n == off {
			q.n += n
			return false
		}
		i := int32(a.spans.push(spanLink{off: off, n: n}))
		q.next, q.tail = i, i
	default:
		if t := a.spans.at(int(q.tail)); t.off+t.n == off {
			t.n += n
			return false
		}
		// Push before taking the tail's address: growing the slab's
		// first chunk moves it.
		i := int32(a.spans.push(spanLink{off: off, n: n}))
		a.spans.at(int(q.tail)).next = i
		q.tail = i
	}
	return false
}

// pop removes up to b words from the front of the non-empty queue q of
// sender arena src. A pop within the head span and one chunk returns a
// view of src's active half; one that crosses into the next span or chunk
// gathers its words into a's scratch. Only q and a's scratch are written.
func (a *sendArena) pop(q *spanQueue, src *sendArena, b int) []Word {
	if head := int(q.n); b <= head || q.next == 0 {
		k := min(b, head)
		if ws, ok := src.words.view(int(q.off), k); ok {
			src.consume(q, uint32(k))
			return ws
		}
	}
	take := src.queued(q, b)
	buf := a.gather(take)
	for len(buf) < take {
		k := min(take-len(buf), int(q.n))
		if ws, ok := src.words.view(int(q.off), k); ok {
			for _, w := range ws { // pieces are short: no memmove call
				buf = append(buf, w)
			}
		} else {
			buf = src.words.appendTo(buf, int(q.off), k)
		}
		src.consume(q, uint32(k))
	}
	return buf
}

// queued returns the words queued in q, one of this shard's queues, or b
// if that is fewer. It walks only the spans those words lie in.
func (a *sendArena) queued(q *spanQueue, b int) int {
	n := int(q.n)
	for i := q.next; i != 0 && n < b; {
		l := a.spans.at(int(i))
		n += int(l.n)
		i = l.next
	}
	return min(n, b)
}

// gather returns an empty slice with room for exactly k words, for a pop
// to fill: in the scratch's current chunk, or at the start of the next one
// when the current cannot hold them, so the scratch uses at most twice
// the words gathered this round. A gather larger than a chunk gets a slice
// of its own.
func (a *sendArena) gather(k int) []Word {
	if k > chunkLen {
		return make([]Word, 0, k)
	}
	sc := &a.scratch
	if i := sc.n & chunkMask; i+k > chunkLen {
		sc.n += chunkLen - i
	}
	sc.reserve(k)
	buf := sc.chunks[sc.n>>chunkShift][sc.n&chunkMask:][:0:k]
	sc.n += k
	return buf
}

// consume drops k <= q.n words from q's head span, promoting the next
// overflow span once the head is exhausted.
func (a *sendArena) consume(q *spanQueue, k uint32) {
	q.off += k
	q.n -= k
	if q.n == 0 && q.next != 0 {
		l := a.spans.at(int(q.next))
		q.off, q.n, q.next = l.off, l.n, l.next
		if q.next == 0 {
			q.tail = 0
		}
	}
}

// eachSpan calls fn for each span of q, one of this shard's queues, in
// FIFO order.
func (a *sendArena) eachSpan(q *spanQueue, fn func(off, n uint32)) {
	fn(q.off, q.n)
	for i := q.next; i != 0; {
		l := a.spans.at(int(i))
		fn(l.off, l.n)
		i = l.next
	}
}

// appendQueued appends the words of q, one of this shard's queues, to dst
// in FIFO order.
func (a *sendArena) appendQueued(dst []Word, q *spanQueue) []Word {
	a.eachSpan(q, func(off, n uint32) { dst = a.words.appendTo(dst, int(off), int(n)) })
	return dst
}

// compactQueue copies the words of q, one of this shard's queues, into the
// spare half and rewrites q as the single span holding them there.
func (a *sendArena) compactQueue(q *spanQueue) {
	off := a.spare.n
	a.eachSpan(q, func(o, n uint32) { a.words.copyTo(&a.spare, int(o), int(n)) })
	*q = spanQueue{off: uint32(off), n: uint32(a.spare.n - off)}
}

// flip retires the active half and restarts on the spare one, emptied,
// with an empty slab. Only valid when no queue holds a span of this shard.
func (a *sendArena) flip() {
	a.words, a.spare = a.spare, a.words
	a.words.reset()
	a.spans.n = 1
}

// clearLog empties the send log once it has been merged.
func (a *sendArena) clearLog() {
	a.log.reset()
	a.sent = 0
}

// clear empties the arena for a fresh run, keeping every chunk.
func (a *sendArena) clear() {
	a.words.reset()
	a.spare.reset()
	a.clearLog()
	a.spans.n = 1
	a.scratch.reset()
}

// bindArenas sizes the arena list to the shard plan and points every
// context at its shard's arena. The engine must be drained (NewEngine,
// or Rebind after clearRun).
func (e *Engine) bindArenas() {
	for len(e.arenas) < e.nshards {
		e.arenas = append(e.arenas, newSendArena())
	}
	e.arenas = e.arenas[:e.nshards]
	for v, ctx := range e.ctxs {
		ctx.arena = e.arenas[e.shardOf[v]]
	}
}

// arenaOf returns the send arena of sender u's shard. A one-shard plan has
// one arena, and not reading shardOf there saves delivery a cache miss per
// channel.
func (e *Engine) arenaOf(u int32) *sendArena {
	if len(e.arenas) == 1 {
		return e.arenas[0]
	}
	return e.arenas[e.shardOf[u]]
}

// activate records that channel c just became active toward receiver to:
// it joins to's active list in activation order — ascending sender, then
// send order, the determinism contract's source of per-receiver delivery
// order — and a receiver with its first active channel sets its bit in its
// shard's receiver bitset.
func (e *Engine) activate(c, to int32) {
	k := e.nactive[to]
	e.active[e.commOffs[to]+k] = c
	e.nactive[to] = k + 1
	if k == 0 {
		s := e.shardOf[to]
		i := to - e.shardBounds[s]
		e.recvBits[s][i>>6] |= 1 << (i & 63)
	}
}

// linkLog links every record of a's send log into its queues in log
// order — ascending sender, then send order — and empties the log. It
// calls activated with each channel whose queue was empty and its
// receiver, and bcastActivated for each sender whose broadcast queue was
// empty, in that order, and returns the words queued. No word is copied.
func (e *Engine) linkLog(a *sendArena, activated func(c, to int32), bcastActivated func(int32)) int64 {
	queued := int64(0)
	// link queues a span on the channel of the sender slot s: twin[s], from
	// the sender to commTgts[s].
	link := func(s int32, off, n uint32) {
		c := e.twin[s]
		if a.push(&e.queues[c], off, n) {
			activated(c, e.commTgts[s])
		}
		queued += int64(n)
	}
	off, from := a.logBase, int32(0)
	for ci := range a.log.nchunks() {
		for _, r := range a.log.chunk(ci) {
			switch r.nbr {
			case senderMark:
				from = int32(r.n)
				continue
			case bcastIdx:
				if a.push(&e.bcastQ[from], off, r.n) {
					bcastActivated(from)
				}
				queued += int64(r.n)
			case allIdx:
				for s := e.commOffs[from]; s < e.commOffs[from+1]; s++ {
					link(s, off, r.n)
				}
			default:
				link(e.commOffs[from]+r.nbr, off, r.n)
			}
			off += r.n
		}
	}
	a.clearLog()
	return queued
}

// flushLog is the merge of a's send log on the spine: a one-shard plan's
// whole merge, and every plan's for Init sends.
func (e *Engine) flushLog(a *sendArena) {
	e.queuedWords += e.linkLog(a, e.activate,
		func(u int32) { e.bcastActive = append(e.bcastActive, u) })
}

// flipIfDrained flips every arena when the delivery phase just run left
// every channel empty: nothing queued references the active halves any
// more, and this round's inboxes keep reading the retired ones.
func (e *Engine) flipIfDrained() {
	if e.queuedWords != 0 {
		return
	}
	for _, a := range e.arenas {
		a.flip()
	}
}

// arenaLoad returns the words in the arenas' active halves plus the spans
// in their slabs: what compaction bounds.
func (e *Engine) arenaLoad() int64 {
	total := int64(0)
	for _, a := range e.arenas {
		total += int64(a.words.n + a.spans.n - 1)
	}
	return total
}

// compactIfSparse runs on the spine after a merge that linked words
// (linked reports whether any send log was non-empty): when the arenas
// hold more than twice the queued words plus compactSlack in words and
// spans, it copies every queued word into its sender shard's spare half,
// rewrites each queue as one span and flips every arena. Inboxes are
// consumed by then, so the retired halves hold no live word. A compaction
// leaves the load at the queued words, at most half of what triggered it,
// and its cost — the queued words — is paid for by the words delivered or
// sent since the previous one.
func (e *Engine) compactIfSparse(linked bool) {
	if !linked || e.arenaLoad() <= 2*e.queuedWords+compactSlack {
		return
	}
	for _, a := range e.arenas {
		a.spare.reset()
	}
	e.eachActive(func(c int32) {
		e.arenaOf(e.commTgts[c]).compactQueue(&e.queues[c])
	})
	for _, u := range e.bcastActive {
		e.arenaOf(u).compactQueue(&e.bcastQ[u])
	}
	for _, a := range e.arenas {
		a.words, a.spare = a.spare, a.words
		a.spans.n = 1
	}
}
