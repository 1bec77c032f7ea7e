package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testMeta() Meta {
	return Meta{
		SpecHash:  "f00dfeedcafe0123",
		GraphHash: "0123456789abcdef",
		Algo:      "list",
		Seed:      42,
		Round:     16,
		N:         1000,
		M:         4999,
		Bandwidth: 2,
		Mode:      0,
		Scheduler: 0,
		Shards:    4,
	}
}

func mustEncode(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	data, err := c.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// rawContainer assembles a container with arbitrary (possibly invalid)
// meta bytes but a consistent header and checksum, for exercising
// validation paths Encode itself can never produce.
func rawContainer(meta, payload []byte, round, n uint64) []byte {
	out := make([]byte, ckptHeaderLen, ckptHeaderLen+len(meta)+len(payload))
	copy(out[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(out[4:8], ckptVersion)
	binary.LittleEndian.PutUint32(out[8:12], 8)
	binary.LittleEndian.PutUint64(out[16:24], round)
	binary.LittleEndian.PutUint64(out[24:32], n)
	binary.LittleEndian.PutUint64(out[32:40], uint64(len(meta)))
	binary.LittleEndian.PutUint64(out[40:48], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(meta)
	h.Write(payload)
	binary.LittleEndian.PutUint64(out[48:56], h.Sum64())
	out = append(out, meta...)
	out = append(out, payload...)
	return out
}

func TestContainerRoundTrip(t *testing.T) {
	payload := []byte("engine snapshot payload bytes \x00\x01\x02")
	ck := New(testMeta(), payload)
	data := mustEncode(t, ck)

	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Meta, ck.Meta) {
		t.Fatalf("meta round-trip: got %+v want %+v", got.Meta, ck.Meta)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatalf("payload round-trip mismatch")
	}
	re := mustEncode(t, got)
	if !bytes.Equal(re, data) {
		t.Fatalf("re-encode of decoded checkpoint is not byte-identical")
	}
}

func TestDecodeRejects(t *testing.T) {
	valid := mustEncode(t, New(testMeta(), []byte("payload")))

	// Truncation at every prefix length must fail closed (never succeed).
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := Decode(valid[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", cut, err)
		}
	}

	corrupt := func(name string, mutate func([]byte), want error) {
		t.Helper()
		data := append([]byte(nil), valid...)
		mutate(data)
		if _, err := Decode(data); !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", name, err, want)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'X' }, ErrCorrupt)
	corrupt("future version", func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 99) }, ErrVersion)
	corrupt("word width", func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 4) }, ErrCorrupt)
	corrupt("nonzero flags", func(b []byte) { b[12] = 1 }, ErrCorrupt)
	corrupt("nonzero reserved", func(b []byte) { b[60] = 7 }, ErrCorrupt)
	corrupt("header round vs meta", func(b []byte) { b[16] ^= 0xFF }, ErrCorrupt)
	corrupt("header n vs meta", func(b []byte) { b[24] ^= 0xFF }, ErrCorrupt)
	corrupt("checksum stamp", func(b []byte) { b[48] ^= 0x01 }, ErrCorrupt)
	corrupt("payload bit flip", func(b []byte) { b[len(b)-1] ^= 0x80 }, ErrCorrupt)
	corrupt("meta bit flip", func(b []byte) { b[ckptHeaderLen] ^= 0x80 }, ErrCorrupt)
	corrupt("absurd meta length", func(b []byte) {
		binary.LittleEndian.PutUint64(b[32:40], maxSectionLen+1)
	}, ErrCorrupt)

	// Trailing garbage after a valid container.
	if _, err := Decode(append(append([]byte(nil), valid...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: got %v, want ErrCorrupt", err)
	}

	// Meta that is not JSON, with a checksum that still verifies.
	bad := rawContainer([]byte("{not json"), []byte("p"), 16, 1000)
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-JSON meta: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeLegacyPlacementMeta: containers written while the engine still
// had workers and parallel placement settings carry them in their meta.
// They decode to the same Meta, and re-encode byte-identically from the
// kept raw meta bytes.
func TestDecodeLegacyPlacementMeta(t *testing.T) {
	meta := []byte(`{"spec_hash":"f00dfeedcafe0123","graph_hash":"0123456789abcdef","algo":"list",` +
		`"seed":42,"round":16,"n":1000,"m":4999,"bandwidth":2,"mode":0,"scheduler":0,` +
		`"shards":4,"workers":2,"parallel":true}`)
	data := rawContainer(meta, []byte("engine payload"), 16, 1000)
	c, err := Decode(data)
	if err != nil {
		t.Fatalf("legacy container rejected: %v", err)
	}
	if c.Meta != testMeta() {
		t.Fatalf("legacy meta decoded to %+v, want %+v", c.Meta, testMeta())
	}
	if again := mustEncode(t, c); !bytes.Equal(again, data) {
		t.Fatal("legacy container did not re-encode byte-identically")
	}
}

func TestCompatibleWith(t *testing.T) {
	base := testMeta()
	if err := base.CompatibleWith(base); err != nil {
		t.Fatalf("identical meta rejected: %v", err)
	}

	// Placement may differ freely: checkpoints migrate across shard
	// counts.
	moved := base
	moved.Shards = 1
	if err := base.CompatibleWith(moved); err != nil {
		t.Fatalf("placement-only change rejected: %v", err)
	}

	reject := func(name string, mutate func(*Meta)) {
		t.Helper()
		m := base
		mutate(&m)
		if err := base.CompatibleWith(m); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: got %v, want ErrMismatch", name, err)
		}
	}
	reject("spec hash", func(m *Meta) { m.SpecHash = "deadbeef00000000" })
	reject("graph hash", func(m *Meta) { m.GraphHash = "deadbeef00000000" })
	reject("algo", func(m *Meta) { m.Algo = "find" })
	reject("seed", func(m *Meta) { m.Seed = 43 })
	reject("n", func(m *Meta) { m.N = 999 })
	reject("m", func(m *Meta) { m.M = 1 })
	reject("bandwidth", func(m *Meta) { m.Bandwidth = 1 })
	reject("mode", func(m *Meta) { m.Mode = 1 })
	reject("scheduler", func(m *Meta) { m.Scheduler = 1 })
}

func TestSaveLoadLatestReap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts") // exercise MkdirAll
	meta := testMeta()

	if got := Rounds(dir, meta.SpecHash); len(got) != 0 {
		t.Fatalf("Rounds on missing dir = %v", got)
	}
	if _, _, err := Nearest(dir, meta.SpecHash, math.MaxInt); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Nearest on missing dir: got %v, want ErrNotFound", err)
	}

	for _, round := range []int{0, 8, 16} {
		m := meta
		m.Round = round
		path, err := Save(dir, New(m, []byte(fmt.Sprintf("payload@%d", round))))
		if err != nil {
			t.Fatalf("Save round %d: %v", round, err)
		}
		if filepath.Base(path) != FileName(meta.SpecHash, round) {
			t.Fatalf("Save path %q, want name %q", path, FileName(meta.SpecHash, round))
		}
	}
	// A different spec family in the same directory must stay invisible.
	other := meta
	other.SpecHash = "aaaabbbbccccdddd"
	other.Round = 99
	if _, err := Save(dir, New(other, []byte("other"))); err != nil {
		t.Fatalf("Save other family: %v", err)
	}

	// Name-only discovery agrees with the files written and never sees the
	// other family.
	if got := Rounds(dir, meta.SpecHash); !reflect.DeepEqual(got, []int{0, 8, 16}) {
		t.Fatalf("Rounds = %v, want [0 8 16]", got)
	}
	if got := Rounds(dir, "ffffeeeeddddcccc"); len(got) != 0 {
		t.Fatalf("Rounds found checkpoints for an unknown family: %v", got)
	}
	// Nearest picks the highest round at or below its bound; at
	// math.MaxInt that is the latest checkpoint.
	for _, c := range []struct{ bound, want int }{{math.MaxInt, 16}, {16, 16}, {15, 8}, {8, 8}, {0, 0}} {
		ck, _, err := Nearest(dir, meta.SpecHash, c.bound)
		if err != nil {
			t.Fatalf("Nearest(%d): %v", c.bound, err)
		}
		if ck.Meta.Round != c.want || string(ck.Payload) != fmt.Sprintf("payload@%d", c.want) {
			t.Fatalf("Nearest(%d) returned round %d payload %q, want round %d", c.bound, ck.Meta.Round, ck.Payload, c.want)
		}
	}
	if _, _, err := Nearest(dir, meta.SpecHash, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Nearest below every checkpoint: got %v, want ErrNotFound", err)
	}
	_, path, err := Nearest(dir, meta.SpecHash, math.MaxInt)
	if err != nil {
		t.Fatalf("Nearest: %v", err)
	}
	if loaded, err := Load(path); err != nil || loaded.Meta.Round != 16 {
		t.Fatalf("Load(%q): %v", path, err)
	}

	if err := Reap(dir, meta.SpecHash); err != nil {
		t.Fatalf("Reap: %v", err)
	}
	if got := Rounds(dir, meta.SpecHash); len(got) != 0 {
		t.Fatalf("checkpoints survive Reap: %v", got)
	}
	if got := Rounds(dir, other.SpecHash); len(got) != 1 {
		t.Fatalf("Reap removed another family's checkpoints")
	}
	if _, _, err := Nearest(dir, meta.SpecHash, math.MaxInt); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Nearest after Reap: got %v, want ErrNotFound", err)
	}
}

// FuzzCheckpointRoundTrip pins the container's fail-closed contract:
// whatever bytes arrive, Decode either rejects them with a typed error or
// accepts them — and every accepted container re-encodes byte-identically
// and decodes again to the same provenance. There is no third outcome
// (a wrong-but-successful restore source).
func FuzzCheckpointRoundTrip(f *testing.F) {
	valid, err := New(testMeta(), []byte("fuzz seed payload")).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:ckptHeaderLen])                       // header only, sections missing
	f.Add(valid[:7])                                   // sub-header truncation
	f.Add(append(append([]byte(nil), valid...), 0xEE)) // trailing garbage
	for _, off := range []int{0, 4, 8, 12, 16, 48, 56, ckptHeaderLen, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	f.Add(rawContainer([]byte("{not json"), []byte("p"), 16, 1000))
	f.Add([]byte{})
	f.Add([]byte(ckptMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode failed with untyped error: %v", err)
			}
			return
		}
		re, err := ck.Encode()
		if err != nil {
			t.Fatalf("re-encode of accepted container: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted container does not re-encode byte-identically")
		}
		ck2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(ck.Meta, ck2.Meta) || !bytes.Equal(ck.Payload, ck2.Payload) {
			t.Fatalf("re-decode disagrees with first decode")
		}
	})
}

// TestSaveSyncFailure injects a failing fsync. When the temp file's fsync
// fails, Save returns the error and leaves neither the temp file nor the
// final name; when the directory's fsync after the rename fails, it
// returns the error too.
func TestSaveSyncFailure(t *testing.T) {
	defer func(orig func(*os.File) error) { syncFile = orig }(syncFile)
	errSync := errors.New("injected fsync failure")
	for _, failAt := range []int{1, 2} { // 1: the temp file, 2: the directory
		dir := t.TempDir()
		calls := 0
		syncFile = func(f *os.File) error {
			if calls++; calls == failAt {
				return errSync
			}
			return f.Sync()
		}
		m := testMeta()
		path, err := Save(dir, New(m, []byte("payload")))
		if !errors.Is(err, errSync) {
			t.Fatalf("sync %d fails: Save returned %q, %v; want the injected error", failAt, path, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		want := []string(nil)
		if failAt == 2 {
			want = []string{FileName(m.SpecHash, m.Round)} // renamed before the directory fsync
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("sync %d fails: directory holds %v, want %v", failAt, names, want)
		}
	}
}
