package sim

// chunkShift sizes the storage chunks of the send arenas: 1<<chunkShift
// elements each (128 KiB of words).
const (
	chunkShift = 14
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// chunked is an append-only store in fixed-size chunks addressed by a flat
// index: element i lives at chunks[i>>chunkShift][i&chunkMask]. Growing
// it allocates one more chunk and copies nothing, so a store that grows to
// millions of elements leaves no discarded copies of itself behind, and
// reset keeps every chunk for the next run. Only the first chunk starts
// small and is reallocated as it grows to full size, which keeps small
// engines small.
type chunked[T any] struct {
	chunks [][]T
	n      int // elements in use
	cap    int // elements the chunks hold
}

// reserve makes room for k more elements.
func (c *chunked[T]) reserve(k int) {
	need := c.n + k
	if need <= c.cap {
		return
	}
	if c.cap < chunkLen {
		grown := make([]T, min(chunkLen, max(need, 2*c.cap, 16)))
		if c.cap > 0 {
			copy(grown, c.chunks[0])
			c.chunks[0] = grown
		} else {
			c.chunks = append(c.chunks, grown)
		}
		c.cap = len(grown)
	}
	for c.cap < need {
		c.chunks = append(c.chunks, make([]T, chunkLen))
		c.cap += chunkLen
	}
}

// at returns element i.
func (c *chunked[T]) at(i int) *T { return &c.chunks[i>>chunkShift][i&chunkMask] }

// push appends x and returns its index.
func (c *chunked[T]) push(x T) int {
	if c.n == c.cap {
		c.reserve(1)
	}
	i := c.n
	*c.at(i) = x
	c.n++
	return i
}

// add appends xs and returns the index of the first.
func (c *chunked[T]) add(xs []T) int {
	off := c.n
	if i := off & chunkMask; off+len(xs) <= c.cap && i+len(xs) <= chunkLen {
		copy(c.chunks[off>>chunkShift][i:], xs)
		c.n += len(xs)
		return off
	}
	c.reserve(len(xs))
	for len(xs) > 0 {
		k := copy(c.chunks[c.n>>chunkShift][c.n&chunkMask:], xs)
		xs = xs[k:]
		c.n += k
	}
	return off
}

// view returns elements [off, off+k), k > 0, as one slice without copying
// when they lie in one chunk.
func (c *chunked[T]) view(off, k int) ([]T, bool) {
	i := off & chunkMask
	if i+k > chunkLen {
		return nil, false
	}
	return c.chunks[off>>chunkShift][i : i+k : i+k], true
}

// copyTo appends elements [off, off+k) to dst.
func (c *chunked[T]) copyTo(dst *chunked[T], off, k int) {
	for k > 0 {
		i := off & chunkMask
		piece := c.chunks[off>>chunkShift][i:min(i+k, chunkLen)]
		dst.add(piece)
		off += len(piece)
		k -= len(piece)
	}
}

// appendTo appends elements [off, off+k) to the slice dst.
func (c *chunked[T]) appendTo(dst []T, off, k int) []T {
	for k > 0 {
		i := off & chunkMask
		piece := c.chunks[off>>chunkShift][i:min(i+k, chunkLen)]
		dst = append(dst, piece...)
		off += len(piece)
		k -= len(piece)
	}
	return dst
}

// chunk returns the elements in use of chunk ci, for in-order walks.
func (c *chunked[T]) chunk(ci int) []T {
	lo := ci << chunkShift
	return c.chunks[ci][:min(c.n-lo, chunkLen)]
}

// nchunks returns the number of chunks holding elements in use.
func (c *chunked[T]) nchunks() int { return (c.n + chunkMask) >> chunkShift }

// reset empties the store, keeping its chunks.
func (c *chunked[T]) reset() { c.n = 0 }
