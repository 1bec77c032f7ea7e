package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"unsafe"
)

// Binary CSR container (".csrbin"): the on-disk twin of the in-memory CSR
// slabs, designed so a million-node graph loads in milliseconds instead of
// re-parsing a text edge list. Layout, all little-endian:
//
//	offset  size  field
//	0       4     magic "CSRB"
//	4       4     version (uint32, currently 1)
//	8       4     offset width in bytes (uint32, 4 or 8)
//	12      4     target width in bytes (uint32, 4 or 8)
//	16      8     n, vertex count (uint64)
//	24      8     m, undirected edge count (uint64)
//	32      32    reserved, must be zero in version 1
//	64      ...   offsets slab: (n+1) entries of offset width
//	...     ...   targets slab: 2m entries of target width
//
// The 64-byte header keeps both slabs 4-byte aligned, so on little-endian
// unix hosts a 4-wide file maps zero-copy: the mmap'd region is reinterpreted
// as the two []int32 slabs and handed to FromCSRUnchecked without touching a
// byte of payload beyond a cheap linear sanity pass. The format accepts
// 8-byte widths (writers beyond the int32 engine boundary); readers
// down-convert and return ErrGraphTooLarge when a value does not fit.
//
// Loads verify header sanity, monotone offsets, offsets[n] == 2m, and target
// range — O(n+m) with no branches per edge beyond a compare. They do NOT
// re-check row sortedness or symmetry (that would cost O(m log d) binary
// searches and defeat the point of the binary path); a file produced by
// WriteCSRBinary holds both by construction, and a hand-forged file that
// violates them gets the same undefined behavior contract as
// FromCSRUnchecked.
const (
	csrbinMagic     = "CSRB"
	csrbinVersion   = 1
	csrbinHeaderLen = 64
)

// hostLittleEndian reports whether the running host stores integers
// little-endian, which gates every zero-copy slab reinterpretation.
var hostLittleEndian = func() bool {
	var b [4]byte
	binary.NativeEndian.PutUint32(b[:], 1)
	return b[0] == 1
}()

// WriteCSRBinary serializes g in the .csrbin format. The writer emits 4-byte
// widths (the in-memory Graph is int32-bounded), so the output always
// qualifies for the zero-copy mmap load path.
func WriteCSRBinary(w io.Writer, g *Graph) error {
	var h [csrbinHeaderLen]byte
	copy(h[0:4], csrbinMagic)
	binary.LittleEndian.PutUint32(h[4:8], csrbinVersion)
	binary.LittleEndian.PutUint32(h[8:12], 4)
	binary.LittleEndian.PutUint32(h[12:16], 4)
	binary.LittleEndian.PutUint64(h[16:24], uint64(g.n))
	binary.LittleEndian.PutUint64(h[24:32], uint64(g.m))
	if _, err := w.Write(h[:]); err != nil {
		return fmt.Errorf("graph: csrbin header: %w", err)
	}
	if err := writeInt32SlabLE(w, g.offs); err != nil {
		return fmt.Errorf("graph: csrbin offsets: %w", err)
	}
	if err := writeInt32SlabLE(w, g.tgts); err != nil {
		return fmt.Errorf("graph: csrbin targets: %w", err)
	}
	return nil
}

func writeInt32SlabLE(w io.Writer, s []int32) error {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := w.Write(int32SlabBytes(s))
		return err
	}
	var buf [4096]byte
	for len(s) > 0 {
		k := min(len(s), len(buf)/4)
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(s[i]))
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// csrbinHeaderInfo is a decoded, bounds-checked header.
type csrbinHeaderInfo struct {
	n, m               int
	offWidth, tgtWidth int
}

func parseCSRBinHeader(h []byte) (csrbinHeaderInfo, error) {
	var hi csrbinHeaderInfo
	if string(h[0:4]) != csrbinMagic {
		return hi, fmt.Errorf("graph: csrbin: bad magic %q", h[0:4])
	}
	if v := binary.LittleEndian.Uint32(h[4:8]); v != csrbinVersion {
		return hi, fmt.Errorf("graph: csrbin: unsupported version %d (want %d)", v, csrbinVersion)
	}
	ow := binary.LittleEndian.Uint32(h[8:12])
	tw := binary.LittleEndian.Uint32(h[12:16])
	if (ow != 4 && ow != 8) || (tw != 4 && tw != 8) {
		return hi, fmt.Errorf("graph: csrbin: unsupported widths offset=%d target=%d (want 4 or 8)", ow, tw)
	}
	n := binary.LittleEndian.Uint64(h[16:24])
	m := binary.LittleEndian.Uint64(h[24:32])
	if n > math.MaxInt32 {
		return hi, fmt.Errorf("graph: csrbin: %d vertices exceed the int32 id space: %w", n, ErrGraphTooLarge)
	}
	if err := checkEdgeSpace(int64(min(m, math.MaxInt64))); err != nil {
		return hi, fmt.Errorf("graph: csrbin: %w", err)
	}
	for _, b := range h[32:csrbinHeaderLen] {
		if b != 0 {
			return hi, errors.New("graph: csrbin: nonzero reserved header bytes")
		}
	}
	hi = csrbinHeaderInfo{n: int(n), m: int(m), offWidth: int(ow), tgtWidth: int(tw)}
	return hi, nil
}

// ReadCSRBinary deserializes a .csrbin stream. It accepts both 4- and 8-byte
// widths, returning ErrGraphTooLarge if an 8-byte value exceeds the in-memory
// int32 edge space, and rejects truncated payloads and trailing garbage.
func ReadCSRBinary(r io.Reader) (*Graph, error) {
	var h [csrbinHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("graph: csrbin header: %w", err)
	}
	hi, err := parseCSRBinHeader(h[:])
	if err != nil {
		return nil, err
	}
	offs, err := readInt32SlabLE(r, hi.n+1, hi.offWidth)
	if err != nil {
		return nil, fmt.Errorf("graph: csrbin offsets: %w", err)
	}
	tgts, err := readInt32SlabLE(r, 2*hi.m, hi.tgtWidth)
	if err != nil {
		return nil, fmt.Errorf("graph: csrbin targets: %w", err)
	}
	var one [1]byte
	if _, err := io.ReadFull(r, one[:]); err != io.EOF {
		return nil, errors.New("graph: csrbin: trailing data after payload")
	}
	if err := checkCSRCheap(hi.n, hi.m, offs, tgts); err != nil {
		return nil, err
	}
	return FromCSRUnchecked(hi.n, offs, tgts), nil
}

// readInt32SlabLE reads count little-endian integers of the given byte width
// into a fresh []int32. The 4-wide path reads straight into the slab's own
// backing memory (one ReadFull, no per-element decode on little-endian
// hosts); the 8-wide path decodes chunkwise with an int32 range check.
func readInt32SlabLE(r io.Reader, count, width int) ([]int32, error) {
	out := make([]int32, count)
	if count == 0 {
		return out, nil
	}
	if width == 4 {
		if _, err := io.ReadFull(r, int32SlabBytes(out)); err != nil {
			return nil, err
		}
		if !hostLittleEndian {
			for i, v := range out {
				out[i] = int32(bits.ReverseBytes32(uint32(v)))
			}
		}
		return out, nil
	}
	var buf [8 * 512]byte
	for i := 0; i < count; {
		k := min(count-i, len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			v := binary.LittleEndian.Uint64(buf[8*j:])
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("64-bit entry %d does not fit int32: %w", v, ErrGraphTooLarge)
			}
			out[i+j] = int32(v)
		}
		i += k
	}
	return out, nil
}

// checkCSRCheap is the load-time sanity pass: header-consistent lengths,
// offsets[0] == 0, monotone offsets summing to 2m, and in-range targets.
// Deliberately linear — no sortedness or symmetry verification (see the
// format comment above).
func checkCSRCheap(n, m int, offs, tgts []int32) error {
	if len(offs) != n+1 || offs[0] != 0 {
		return fmt.Errorf("graph: csrbin: malformed offsets (len %d for n=%d)", len(offs), n)
	}
	if len(tgts) != 2*m || int(offs[n]) != len(tgts) {
		return fmt.Errorf("graph: csrbin: offsets[n]=%d disagrees with 2m=%d", offs[n], 2*m)
	}
	prev := int32(0)
	for v := 1; v <= n; v++ {
		if offs[v] < prev {
			return fmt.Errorf("graph: csrbin: offsets not monotone at vertex %d", v-1)
		}
		prev = offs[v]
	}
	for i, t := range tgts {
		if t < 0 || int(t) >= n {
			return fmt.Errorf("graph: csrbin: target %d at slot %d out of range [0,%d)", t, i, n)
		}
	}
	return nil
}

// int32SlabBytes reinterprets an int32 slab as its backing bytes.
func int32SlabBytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// bytesAsInt32 reinterprets a 4-aligned byte region as an int32 slab.
func bytesAsInt32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// CSRBinFile is an open .csrbin graph with explicit lifetime. When the load
// went through mmap the Graph's adjacency slabs alias the mapping: the Graph,
// and every Neighbors/CSR subslice taken from it, is invalid after Close.
// Tools that control their own lifecycle use OpenCSRBinary/Close; callers
// that want GC-managed lifetime use LoadCSRBinary instead.
type CSRBinFile struct {
	g    *Graph
	data []byte // mmap'd region; nil when the graph was read into the heap
}

// Graph returns the loaded graph. Nil after Close.
func (f *CSRBinFile) Graph() *Graph { return f.g }

// Mapped reports whether the graph's slabs alias an active memory mapping
// (zero-copy load) rather than heap memory.
func (f *CSRBinFile) Mapped() bool { return f.data != nil }

// Close releases the mapping, if any. The Graph must not be used afterwards
// when Mapped() was true.
func (f *CSRBinFile) Close() error {
	d := f.data
	f.data = nil
	f.g = nil
	if d != nil {
		return munmapFile(d)
	}
	return nil
}

// OpenCSRBinary opens a .csrbin file, zero-copy via mmap when the platform
// and file layout allow it (unix, little-endian host, 4-byte widths), falling
// back to a streamed heap read otherwise. The caller owns the returned handle
// and must Close it.
func OpenCSRBinary(path string) (*CSRBinFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if mmapSupported && hostLittleEndian {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if size := st.Size(); size >= csrbinHeaderLen && int64(int(size)) == size {
			if data, merr := mmapFile(f, int(size)); merr == nil {
				g, zeroCopy, err := csrFromMapped(data)
				if err != nil {
					_ = munmapFile(data)
					return nil, err
				}
				if zeroCopy {
					return &CSRBinFile{g: g, data: data}, nil
				}
				_ = munmapFile(data)
				return &CSRBinFile{g: g}, nil
			}
		}
	}
	g, err := ReadCSRBinary(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	return &CSRBinFile{g: g}, nil
}

// csrFromMapped builds a Graph over a fully mapped .csrbin image. The bool
// result reports zero-copy: true means the Graph aliases data and the mapping
// must outlive it; false means the payload was copied to the heap (8-byte
// widths or big-endian host) and data can be unmapped immediately.
func csrFromMapped(data []byte) (*Graph, bool, error) {
	if len(data) < csrbinHeaderLen {
		return nil, false, errors.New("graph: csrbin: file shorter than header")
	}
	hi, err := parseCSRBinHeader(data[:csrbinHeaderLen])
	if err != nil {
		return nil, false, err
	}
	offBytes := (int64(hi.n) + 1) * int64(hi.offWidth)
	want := csrbinHeaderLen + offBytes + int64(2*hi.m)*int64(hi.tgtWidth)
	if int64(len(data)) != want {
		return nil, false, fmt.Errorf("graph: csrbin: file size %d, header implies %d", len(data), want)
	}
	if hi.offWidth == 4 && hi.tgtWidth == 4 && hostLittleEndian {
		offs := bytesAsInt32(data[csrbinHeaderLen : csrbinHeaderLen+offBytes])
		tgts := bytesAsInt32(data[csrbinHeaderLen+offBytes:])
		if err := checkCSRCheap(hi.n, hi.m, offs, tgts); err != nil {
			return nil, false, err
		}
		return FromCSRUnchecked(hi.n, offs, tgts), true, nil
	}
	g, err := ReadCSRBinary(bytes.NewReader(data))
	return g, false, err
}

// LoadCSRBinary loads a .csrbin file with GC-managed lifetime: when the load
// is mmap-backed, the mapping is released by a runtime cleanup once the Graph
// becomes unreachable, so the caller treats the result like any other Graph.
// This is the path the congest facade uses for GraphSpec files.
func LoadCSRBinary(path string) (*Graph, error) {
	fh, err := OpenCSRBinary(path)
	if err != nil {
		return nil, err
	}
	if fh.data == nil {
		return fh.g, nil
	}
	g, data := fh.g, fh.data
	runtime.AddCleanup(g, func(d []byte) { _ = munmapFile(d) }, data)
	return g, nil
}
