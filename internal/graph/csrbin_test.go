package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testGraphs is the shape matrix the container tests run over: the empty
// and edgeless corners plus the generator families.
func testGraphs(t testing.TB) map[string]*Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	return map[string]*Graph{
		"empty":    Empty(0),
		"edgeless": Empty(17),
		"single":   mustFromEdges(t, 2, []Edge{{0, 1}}),
		"gnp":      Gnp(64, 0.2, rng),
		"powerlaw": BarabasiAlbert(64, 4, rng),
		"complete": Complete(9),
	}
}

func sameGraph(a, b *Graph) bool {
	ao, at := a.CSR()
	bo, bt := b.CSR()
	return a.N() == b.N() && a.M() == b.M() && slices.Equal(ao, bo) && slices.Equal(at, bt)
}

func TestCSRBinaryRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		var buf bytes.Buffer
		if err := WriteCSRBinary(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		wantLen := csrbinHeaderLen + 4*(g.N()+1) + 4*2*g.M()
		if buf.Len() != wantLen {
			t.Fatalf("%s: serialized %d bytes, want %d", name, buf.Len(), wantLen)
		}
		g2, err := ReadCSRBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("%s: round trip changed the graph", name)
		}
	}
}

// TestCSRBinaryOpenMmap pins the zero-copy file path: on platforms with
// mmap support the open must actually map (Mapped() true), the graph must
// equal the source, and Close must release cleanly. LoadCSRBinary must
// yield the same graph with GC-managed lifetime.
func TestCSRBinaryOpenMmap(t *testing.T) {
	dir := t.TempDir()
	for name, g := range testGraphs(t) {
		path := filepath.Join(dir, name+".csrbin")
		writeCSRBinFile(t, path, g)

		cf, err := OpenCSRBinary(path)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if mmapSupported && hostLittleEndian && !cf.Mapped() {
			t.Fatalf("%s: expected a zero-copy mapped load", name)
		}
		if !sameGraph(g, cf.Graph()) {
			t.Fatalf("%s: mapped graph differs", name)
		}
		if err := cf.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if cf.Graph() != nil || cf.Mapped() {
			t.Fatalf("%s: handle not cleared by Close", name)
		}

		lg, err := LoadCSRBinary(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !sameGraph(g, lg) {
			t.Fatalf("%s: loaded graph differs", name)
		}
	}
}

func writeCSRBinFile(t testing.TB, path string, g *Graph) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	werr := WriteCSRBinary(f, g)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		t.Fatal(werr)
	}
}

// encodeCSRBin64 serializes g with 8-byte widths — the format's
// forward-compatible wide form that WriteCSRBinary never emits but readers
// must accept (and down-convert).
func encodeCSRBin64(g *Graph) []byte {
	offs, tgts := g.CSR()
	var buf bytes.Buffer
	var h [csrbinHeaderLen]byte
	copy(h[0:4], csrbinMagic)
	binary.LittleEndian.PutUint32(h[4:8], csrbinVersion)
	binary.LittleEndian.PutUint32(h[8:12], 8)
	binary.LittleEndian.PutUint32(h[12:16], 8)
	binary.LittleEndian.PutUint64(h[16:24], uint64(g.N()))
	binary.LittleEndian.PutUint64(h[24:32], uint64(g.M()))
	buf.Write(h[:])
	var w [8]byte
	for _, v := range offs {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		buf.Write(w[:])
	}
	for _, v := range tgts {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		buf.Write(w[:])
	}
	return buf.Bytes()
}

func TestCSRBinaryWideWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Gnp(48, 0.25, rng)
	data := encodeCSRBin64(g)
	g2, err := ReadCSRBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("8-wide read: %v", err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("8-wide round trip changed the graph")
	}
	// The file path must also accept it — via a heap copy, never zero-copy.
	path := filepath.Join(t.TempDir(), "wide.csrbin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRBinary(path)
	if err != nil {
		t.Fatalf("8-wide open: %v", err)
	}
	defer cf.Close()
	if cf.Mapped() {
		t.Fatal("8-wide file must not load zero-copy")
	}
	if !sameGraph(g, cf.Graph()) {
		t.Fatal("8-wide open changed the graph")
	}

	// A wide value beyond the int32 engine boundary is ErrGraphTooLarge.
	big := encodeCSRBin64(mustFromEdges(t, 2, []Edge{{0, 1}}))
	binary.LittleEndian.PutUint64(big[csrbinHeaderLen:], uint64(math.MaxInt32)+1)
	if _, err := ReadCSRBinary(bytes.NewReader(big)); !errors.Is(err, ErrGraphTooLarge) {
		t.Fatalf("oversized wide entry: err = %v, want ErrGraphTooLarge", err)
	}
}

// TestCSRBinaryErrors walks every corruption class: each must produce a
// deterministic error (never a panic, never a silently wrong graph).
func TestCSRBinaryErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSRBinary(&buf, mustFromEdges(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(bytes.Clone(valid))
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:csrbinHeaderLen-1],
		"truncated body":   valid[:len(valid)-3],
		"trailing data":    append(bytes.Clone(valid), 0),
		"bad magic":        mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad version":      mutate(func(b []byte) []byte { b[4] = 9; return b }),
		"bad width":        mutate(func(b []byte) []byte { b[8] = 3; return b }),
		"nonzero reserved": mutate(func(b []byte) []byte { b[40] = 1; return b }),
		"offsets not monotone": mutate(func(b []byte) []byte {
			// offs[1]: 4 > offs[2] = 3 breaks monotonicity without touching
			// the offs[n] == 2m sum.
			binary.LittleEndian.PutUint32(b[csrbinHeaderLen+4:], 4)
			return b
		}),
		"offset sum mismatch": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[csrbinHeaderLen+4*4:], 4)
			return b
		}),
		"target out of range": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[csrbinHeaderLen+4*5:], 99)
			return b
		}),
	}
	// Vertex and edge counts beyond the engine's int32 boundary must be
	// ErrGraphTooLarge, detected from the header alone.
	nTooBig := mutate(func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:24], uint64(math.MaxInt32)+1)
		return b
	})
	mTooBig := mutate(func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], uint64(MaxEdges)+1)
		return b
	})
	for name, data := range cases {
		if _, err := ReadCSRBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	for name, data := range map[string][]byte{"n too big": nTooBig, "m too big": mTooBig} {
		if _, err := ReadCSRBinary(bytes.NewReader(data)); !errors.Is(err, ErrGraphTooLarge) {
			t.Errorf("%s: err = %v, want ErrGraphTooLarge", name, err)
		}
	}
	// The mmap path must reject the same corruptions (it shares the parser,
	// but the size precheck is its own).
	dir := t.TempDir()
	for name, data := range cases {
		path := filepath.Join(dir, "bad.csrbin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if cf, err := OpenCSRBinary(path); err == nil {
			cf.Close()
			t.Errorf("open %s: no error", name)
		}
	}
}

// FuzzCSRBinary fuzzes the binary reader: arbitrary bytes must either be
// rejected with an error or decode to a graph that re-serializes to a
// stream the reader accepts again, identically. The seed corpus covers the
// valid forms (both widths) and every header corruption class.
func FuzzCSRBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	if err := WriteCSRBinary(&buf, Gnp(24, 0.3, rng)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(encodeCSRBin64(Gnp(12, 0.4, rng)))
	f.Add(valid[:csrbinHeaderLen-1])
	f.Add(valid[:len(valid)-2])
	f.Add(append(bytes.Clone(valid), 0xFF))
	f.Add([]byte("CSRBjunkjunkjunk"))
	f.Add([]byte{})
	corrupt := bytes.Clone(valid)
	corrupt[5] = 0xAA
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadCSRBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just must not panic
		}
		var out bytes.Buffer
		if err := WriteCSRBinary(&out, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadCSRBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if !sameGraph(g, g2) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// TestFromSortedEdges checks the streaming construction against the
// Builder-based path on random inputs, and pins every rejection class with
// its index-carrying error.
func TestFromSortedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		want := Gnp(n, 0.3, rng)
		got, err := FromSortedEdges(n, want.Edges())
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(want, got) {
			t.Fatalf("n=%d: FromSortedEdges diverges from Builder path", n)
		}
	}
	if g, err := FromSortedEdges(0, nil); err != nil || g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty: g=%v err=%v", g, err)
	}
	bad := map[string][]Edge{
		"self-loop":     {{1, 1}},
		"not canonical": {{2, 1}},
		"negative":      {{-1, 2}},
		"out of range":  {{0, 5}},
		"duplicate":     {{0, 1}, {0, 1}},
		"out of order":  {{0, 2}, {0, 1}},
	}
	for name, edges := range bad {
		if _, err := FromSortedEdges(4, edges); err == nil {
			t.Errorf("%s: no error for %v", name, edges)
		}
	}
}

// TestReadEdgeListLineNumbers pins the parser's diagnostics: malformed
// lines, including a second "n" header, are reported by line number.
func TestReadEdgeListLineNumbers(t *testing.T) {
	cases := map[string]struct{ in, want string }{
		"second header":        {"n 4\n0 1\nn 5\n", `line 3: second "n" header (first at line 1)`},
		"second header early":  {"# c\nn 4\nn 4\n", `line 3: second "n" header (first at line 2)`},
		"self-loop line":       {"n 4\n0 1\n\n2 2\n", "line 4: self-loop at vertex 2"},
		"range line":           {"n 4\n0 9\n", "line 2: edge {0,9} out of range [0,4)"},
		"malformed after gaps": {"n 4\n# c\n\n0\n", `line 4: expected "u v", got "0"`},
	}
	for name, c := range cases {
		_, err := ReadEdgeList(bytes.NewReader([]byte(c.in)))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}

// TestCheckEdgeSpace pins the int32 edge-space boundary that every
// constructor and loader guards through (FromSortedEdges, FromCSR, the
// .csrbin header, Builder.AddEdge, text and SNAP ingest): the limit itself
// fits, one past it is ErrGraphTooLarge naming the count, through wrapping.
// The callers hand it a length, so no test needs a graph-sized allocation;
// TestCSRBinaryErrors covers the header wiring with a 32-byte mutation.
func TestCheckEdgeSpace(t *testing.T) {
	for _, m := range []int64{0, 1, MaxEdges} {
		if err := checkEdgeSpace(m); err != nil {
			t.Errorf("checkEdgeSpace(%d) = %v, want nil", m, err)
		}
	}
	for _, m := range []int64{MaxEdges + 1, 1 << 40, math.MaxInt64} {
		err := checkEdgeSpace(m)
		if !errors.Is(err, ErrGraphTooLarge) {
			t.Fatalf("checkEdgeSpace(%d) = %v, want ErrGraphTooLarge", m, err)
		}
		if want := strconv.FormatInt(m, 10); !strings.Contains(err.Error(), want) {
			t.Errorf("checkEdgeSpace(%d) = %q, want it to name the count", m, err)
		}
	}
}
