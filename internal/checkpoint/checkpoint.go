// Package checkpoint implements the durable container for engine
// snapshots: a versioned little-endian binary envelope carrying run
// provenance (so a checkpoint refuses to resume against a mismatched graph
// or config) plus the opaque engine payload produced by
// sim.Engine.Snapshot, with directory helpers for checkpoint families.
// Running from a checkpoint — a resume or a replay — is the caller's job:
// this package only stores, finds and validates containers.
//
// Layout, all little-endian (mirroring the .csrbin discipline):
//
//	offset  size  field
//	0       4     magic "CKPT"
//	4       4     version (uint32, currently 1)
//	8       4     word width in bytes (uint32, must be 8)
//	12      4     flags (uint32, must be zero in version 1)
//	16      8     round (uint64; must equal Meta.Round)
//	24      8     n, node count (uint64; must equal Meta.N)
//	32      8     meta length in bytes (uint64)
//	40      8     payload length in bytes (uint64)
//	48      8     FNV-64a checksum over meta||payload
//	56      8     reserved, must be zero in version 1
//	64      ...   meta: JSON-encoded Meta, exactly meta-length bytes
//	...     ...   payload: opaque engine snapshot, exactly payload-length bytes
//
// Decoding is strict: truncation, trailing data, checksum mismatch,
// nonzero reserved bits and header/meta disagreement all fail closed with
// typed errors — a successful Load never yields a wrong-but-plausible
// checkpoint. A decoded checkpoint retains its exact meta bytes, so
// re-encoding is byte-identical (pinned by FuzzCheckpointRoundTrip).
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	ckptMagic     = "CKPT"
	ckptVersion   = 1
	ckptHeaderLen = 64

	// maxSectionLen bounds meta and payload lengths read from a header
	// before any allocation (1 TiB — far beyond any real checkpoint, small
	// enough to reject absurd headers immediately).
	maxSectionLen = 1 << 40
)

// Typed failure classes, all errors.Is-able through wrapping.
var (
	// ErrCorrupt reports a malformed, truncated or checksum-failing
	// container.
	ErrCorrupt = errors.New("checkpoint: corrupt container")
	// ErrVersion reports an unsupported container version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrMismatch reports provenance that forbids resuming: the checkpoint
	// was taken under a different spec, graph, seed or scheduler-relevant
	// config.
	ErrMismatch = errors.New("checkpoint: provenance mismatch")
	// ErrNotFound reports that a directory holds no checkpoint for the
	// requested spec hash.
	ErrNotFound = errors.New("checkpoint: no checkpoint found")
)

// Meta is the provenance block. Identity fields (everything the
// determinism contract keys on) must match for a resume; Shards is
// recorded for observability only — the restored run is bit-identical at
// any shard count, so migrating a checkpoint across shard counts is legal
// and tested. Decoding ignores fields Meta does not know, so containers
// written with the removed workers and parallel fields still load, and
// the kept raw meta bytes re-encode them byte-identically.
type Meta struct {
	SpecHash  string `json:"spec_hash"`  // canonical job spec hash
	GraphHash string `json:"graph_hash"` // FNV-64a over the CSR slabs
	Algo      string `json:"algo"`       // algorithm family
	Seed      int64  `json:"seed"`
	Round     int    `json:"round"` // round boundary of the snapshot
	N         int    `json:"n"`
	M         int    `json:"m"` // undirected edge count
	Bandwidth int    `json:"bandwidth"`
	Mode      int    `json:"mode"`
	Scheduler int    `json:"scheduler"`
	Shards    int    `json:"shards"` // provenance only
}

// CompatibleWith returns nil when a run described by want may resume from
// this checkpoint, or ErrMismatch (wrapped, naming the first differing
// field) when it may not.
func (m Meta) CompatibleWith(want Meta) error {
	type field struct {
		name     string
		got, exp any
	}
	for _, f := range []field{
		{"spec_hash", m.SpecHash, want.SpecHash},
		{"graph_hash", m.GraphHash, want.GraphHash},
		{"algo", m.Algo, want.Algo},
		{"seed", m.Seed, want.Seed},
		{"n", m.N, want.N},
		{"m", m.M, want.M},
		{"bandwidth", m.Bandwidth, want.Bandwidth},
		{"mode", m.Mode, want.Mode},
		{"scheduler", m.Scheduler, want.Scheduler},
	} {
		if f.got != f.exp {
			return fmt.Errorf("%w: %s is %v, run wants %v", ErrMismatch, f.name, f.got, f.exp)
		}
	}
	return nil
}

// Checkpoint is one decoded (or to-be-encoded) container.
type Checkpoint struct {
	Meta    Meta
	Payload []byte

	// rawMeta preserves the exact stored meta bytes of a decoded
	// checkpoint so Encode is byte-identical; nil for freshly built ones.
	rawMeta []byte
}

// New builds a checkpoint from provenance and an engine payload.
func New(meta Meta, payload []byte) *Checkpoint {
	return &Checkpoint{Meta: meta, Payload: payload}
}

// Encode serializes the container.
func (c *Checkpoint) Encode() ([]byte, error) {
	meta := c.rawMeta
	if meta == nil {
		var err error
		meta, err = json.Marshal(c.Meta)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: encode meta: %w", err)
		}
	}
	out := make([]byte, ckptHeaderLen, ckptHeaderLen+len(meta)+len(c.Payload))
	copy(out[0:4], ckptMagic)
	binary.LittleEndian.PutUint32(out[4:8], ckptVersion)
	binary.LittleEndian.PutUint32(out[8:12], 8)
	binary.LittleEndian.PutUint32(out[12:16], 0)
	binary.LittleEndian.PutUint64(out[16:24], uint64(c.Meta.Round))
	binary.LittleEndian.PutUint64(out[24:32], uint64(c.Meta.N))
	binary.LittleEndian.PutUint64(out[32:40], uint64(len(meta)))
	binary.LittleEndian.PutUint64(out[40:48], uint64(len(c.Payload)))
	h := fnv.New64a()
	h.Write(meta)
	h.Write(c.Payload)
	binary.LittleEndian.PutUint64(out[48:56], h.Sum64())
	out = append(out, meta...)
	out = append(out, c.Payload...)
	return out, nil
}

// Decode parses a container, rejecting truncation, trailing data and every
// corruption class with typed errors.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), ckptHeaderLen)
	}
	if string(data[0:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ckptVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrVersion, v, ckptVersion)
	}
	if ww := binary.LittleEndian.Uint32(data[8:12]); ww != 8 {
		return nil, fmt.Errorf("%w: word width %d (want 8)", ErrCorrupt, ww)
	}
	if fl := binary.LittleEndian.Uint32(data[12:16]); fl != 0 {
		return nil, fmt.Errorf("%w: nonzero flags %#x", ErrCorrupt, fl)
	}
	for _, b := range data[56:ckptHeaderLen] {
		if b != 0 {
			return nil, fmt.Errorf("%w: nonzero reserved header bytes", ErrCorrupt)
		}
	}
	round := binary.LittleEndian.Uint64(data[16:24])
	n := binary.LittleEndian.Uint64(data[24:32])
	metaLen := binary.LittleEndian.Uint64(data[32:40])
	payloadLen := binary.LittleEndian.Uint64(data[40:48])
	if metaLen > maxSectionLen || payloadLen > maxSectionLen {
		return nil, fmt.Errorf("%w: absurd section lengths meta=%d payload=%d", ErrCorrupt, metaLen, payloadLen)
	}
	want := uint64(ckptHeaderLen) + metaLen + payloadLen
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("%w: container is %d bytes, header implies %d", ErrCorrupt, len(data), want)
	}
	meta := data[ckptHeaderLen : ckptHeaderLen+metaLen]
	payload := data[ckptHeaderLen+metaLen:]
	h := fnv.New64a()
	h.Write(meta)
	h.Write(payload)
	if got, exp := h.Sum64(), binary.LittleEndian.Uint64(data[48:56]); got != exp {
		return nil, fmt.Errorf("%w: checksum %#x, stored %#x", ErrCorrupt, got, exp)
	}
	c := &Checkpoint{
		Payload: append([]byte(nil), payload...),
		rawMeta: append([]byte(nil), meta...),
	}
	if err := json.Unmarshal(c.rawMeta, &c.Meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrCorrupt, err)
	}
	if uint64(c.Meta.Round) != round {
		return nil, fmt.Errorf("%w: header round %d, meta round %d", ErrCorrupt, round, c.Meta.Round)
	}
	if uint64(c.Meta.N) != n {
		return nil, fmt.Errorf("%w: header n %d, meta n %d", ErrCorrupt, n, c.Meta.N)
	}
	return c, nil
}

// FileName returns the canonical file name for a checkpoint of the given
// spec hash at the given round.
func FileName(specHash string, round int) string {
	return fmt.Sprintf("%s-r%08d.ckpt", specHash, round)
}

// Save atomically and durably writes the checkpoint into dir under its
// canonical name and returns the final path. The directory is created if
// missing. It writes a temp file, fsyncs it, renames it to the final name
// and fsyncs the directory, so after a crash the final name holds either
// the whole container or nothing new. A failure before the rename removes
// the temp file and leaves the final name untouched.
func Save(dir string, c *Checkpoint) (string, error) {
	data, err := c.Encode()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(dir, FileName(c.Meta.SpecHash, c.Meta.Round))
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return "", err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = syncFile(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return final, nil
}

// syncFile fsyncs f. Tests replace it to inject a failing fsync.
var syncFile = (*os.File).Sync

// syncDir fsyncs dir, making a rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = syncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads and decodes one checkpoint file.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// list returns the checkpoint files for specHash in dir, sorted by round
// ascending (lexicographic order of the zero-padded name).
func list(dir, specHash string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	prefix := specHash + "-r"
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".ckpt") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out
}

// roundOf parses the round out of a canonical checkpoint file name.
func roundOf(path, specHash string) (int, bool) {
	name := filepath.Base(path)
	name = strings.TrimPrefix(name, specHash+"-r")
	name = strings.TrimSuffix(name, ".ckpt")
	r, err := strconv.Atoi(name)
	return r, err == nil && r >= 0
}

// Nearest loads the highest-round checkpoint for specHash at or below
// round — the replay anchor that minimizes catch-up work, or at
// math.MaxInt the latest one. Returns ErrNotFound (wrapped) when none
// qualifies.
func Nearest(dir, specHash string, round int) (*Checkpoint, string, error) {
	files := list(dir, specHash)
	for i := len(files) - 1; i >= 0; i-- {
		r, ok := roundOf(files[i], specHash)
		if !ok || r > round {
			continue
		}
		c, err := Load(files[i])
		if err != nil {
			return nil, "", err
		}
		return c, files[i], nil
	}
	return nil, "", fmt.Errorf("%w: at or below round %d for %s in %s", ErrNotFound, round, specHash, dir)
}

// Rounds returns the rounds of every checkpoint for specHash in dir,
// ascending, from file names alone — no container is loaded, so this is
// the cheap discovery path for recovery and status reporting.
func Rounds(dir, specHash string) []int {
	var out []int
	for _, f := range list(dir, specHash) {
		if r, ok := roundOf(f, specHash); ok {
			out = append(out, r)
		}
	}
	return out
}

// Reap removes every checkpoint file for specHash in dir. Missing
// directories are not an error.
func Reap(dir, specHash string) error {
	var firstErr error
	for _, f := range list(dir, specHash) {
		if err := os.Remove(f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
