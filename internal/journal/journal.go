// Package journal implements the durable append-only record log behind
// the service's crash-safe job store: a versioned little-endian container
// (mirroring internal/checkpoint's header/checksum discipline) holding a
// sequence of typed, individually checksummed records.
//
// File layout, all little-endian:
//
//	offset  size  field
//	0       4     magic "TRIJ"
//	4       4     version (uint32, currently 1)
//	8       8     reserved, must be zero in version 1
//	16      ...   records, back to back
//
// Record frame:
//
//	offset  size  field
//	0       4     payload length in bytes (uint32)
//	4       4     kind (uint32, caller-defined record type)
//	8       8     FNV-64a checksum over kind (4 LE bytes) || payload
//	16      ...   payload, exactly payload-length bytes
//
// Decoding is strict and fail-closed: a bad magic, version, checksum or
// absurd length is ErrCorrupt/ErrVersion — never a wrong-but-plausible
// record. The one sanctioned lenience is the torn tail: a process killed
// mid-append leaves a prefix of the final frame, which Open reports as
// ErrTruncated, drops, and truncates away so the log is append-clean
// again. Torn tails are distinguishable from corruption because each
// flush appends its frames with a single contiguous write: a crash can
// shorten the file, never scramble an earlier complete frame.
//
// A Writer group-commits appends and compacts the file: see Writer.
package journal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

const (
	fileMagic   = "TRIJ"
	fileVersion = 1
	headerLen   = 16
	frameLen    = 16

	// maxPayloadLen bounds a record payload read from a frame header
	// before any allocation (1 GiB — far beyond any job record, small
	// enough to reject absurd frames immediately).
	maxPayloadLen = 1 << 30

	// tempSuffix names a compaction's temporary file: the journal's path
	// plus this suffix, in the same directory so the rename is atomic.
	tempSuffix = ".compact"
)

// CompactFloor is the dead-byte allowance on top of the live bytes: a
// flush compacts once dead bytes exceed live bytes plus the floor. The
// frames after the header so stay within twice the live bytes plus the
// floor after every flush, and a small journal is not rewritten every time
// a few records die.
const CompactFloor = 64 << 10

// Typed failure classes, all errors.Is-able through wrapping.
var (
	// ErrCorrupt reports a malformed or checksum-failing container.
	ErrCorrupt = errors.New("journal: corrupt container")
	// ErrVersion reports an unsupported container version.
	ErrVersion = errors.New("journal: unsupported version")
	// ErrTruncated reports data that ends mid-frame: the torn tail a
	// crash mid-append leaves behind. Replay treats it as clean
	// end-of-log (dropping the partial frame); any other decode failure
	// is corruption.
	ErrTruncated = errors.New("journal: truncated record")

	errClosed = errors.New("journal: closed")
)

// Record is one typed journal entry.
type Record struct {
	Kind    uint32
	Payload []byte
}

// EncodeRecord serializes one record frame.
func EncodeRecord(kind uint32, payload []byte) []byte {
	return appendFrame(make([]byte, 0, frameLen+len(payload)), kind, payload)
}

// appendFrame appends one record frame to dst.
func appendFrame(dst []byte, kind uint32, payload []byte) []byte {
	var h [frameLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], kind)
	binary.LittleEndian.PutUint64(h[8:16], recordSum(kind, payload))
	return append(append(dst, h[:]...), payload...)
}

// recordSum is the per-record FNV-64a checksum over kind || payload.
func recordSum(kind uint32, payload []byte) uint64 {
	h := fnv.New64a()
	var kb [4]byte
	binary.LittleEndian.PutUint32(kb[:], kind)
	h.Write(kb[:])
	h.Write(payload)
	return h.Sum64()
}

// DecodeRecord parses one record frame from the front of data, returning
// the record and the remaining bytes. Data that ends mid-frame is
// ErrTruncated; a complete frame that fails its checksum or declares an
// absurd length is ErrCorrupt. The payload is a copy: data stays the
// caller's.
func DecodeRecord(data []byte) (Record, []byte, error) {
	rec, n, err := decodeFrame(data)
	if err != nil {
		return Record{}, nil, err
	}
	rec.Payload = append([]byte(nil), rec.Payload...)
	return rec, data[n:], nil
}

// decodeFrame is DecodeRecord without the copy: the payload is a
// sub-slice of data, and n is the frame's encoded length.
func decodeFrame(data []byte) (rec Record, n int, err error) {
	if len(data) < frameLen {
		return Record{}, 0, fmt.Errorf("%w: %d bytes is shorter than the %d-byte frame header", ErrTruncated, len(data), frameLen)
	}
	plen := binary.LittleEndian.Uint32(data[0:4])
	if plen > maxPayloadLen {
		return Record{}, 0, fmt.Errorf("%w: absurd payload length %d", ErrCorrupt, plen)
	}
	kind := binary.LittleEndian.Uint32(data[4:8])
	if uint64(len(data)-frameLen) < uint64(plen) {
		return Record{}, 0, fmt.Errorf("%w: frame declares %d payload bytes, %d remain", ErrTruncated, plen, len(data)-frameLen)
	}
	payload := data[frameLen : frameLen+plen]
	if got, exp := recordSum(kind, payload), binary.LittleEndian.Uint64(data[8:16]); got != exp {
		return Record{}, 0, fmt.Errorf("%w: record checksum %#x, stored %#x", ErrCorrupt, got, exp)
	}
	return Record{Kind: kind, Payload: payload}, frameLen + int(plen), nil
}

// encodeHeader builds the 16-byte file header.
func encodeHeader() []byte {
	out := make([]byte, headerLen)
	copy(out[0:4], fileMagic)
	binary.LittleEndian.PutUint32(out[4:8], fileVersion)
	return out
}

// checkHeader validates the file header bytes.
func checkHeader(data []byte) error {
	if len(data) < headerLen {
		return fmt.Errorf("%w: %d bytes is shorter than the %d-byte file header", ErrTruncated, len(data), headerLen)
	}
	if string(data[0:4]) != fileMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != fileVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrVersion, v, fileVersion)
	}
	for _, b := range data[8:headerLen] {
		if b != 0 {
			return fmt.Errorf("%w: nonzero reserved header bytes", ErrCorrupt)
		}
	}
	return nil
}

// Decode parses a whole journal image strictly: header plus records, no
// lenience at all — a torn tail is ErrTruncated, everything else
// ErrCorrupt/ErrVersion. It is the fuzzing and verification entry point;
// crash recovery goes through Open, which tolerates (and repairs) the
// tail.
func Decode(data []byte) ([]Record, error) {
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	var recs []Record
	rest := data[headerLen:]
	for len(rest) > 0 {
		rec, tail, err := DecodeRecord(rest)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		rest = tail
	}
	return recs, nil
}

// scan decodes the records of a journal image whose header has been
// checked, stopping cleanly at a torn tail. It returns the records, whose
// payloads are sub-slices of data, and the length of the clean prefix.
func scan(data []byte) ([]Record, int, error) {
	var recs []Record
	good := headerLen
	for good < len(data) {
		rec, n, err := decodeFrame(data[good:])
		if errors.Is(err, ErrTruncated) {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rec)
		good += n
	}
	return recs, good, nil
}

// Writer is the single owner of a journal file, safe for concurrent use.
//
// Appends are group-committed. Queue adds frames to an in-memory batch
// under a short lock and numbers them; Wait blocks until a given frame is
// durable. The first waiter that finds no flush in progress becomes the
// flusher: it takes every frame queued so far, writes them with one write,
// fsyncs once and wakes the other waiters, one of which leads the next
// flush. There is no background goroutine. An acknowledged record
// survives kill -9; a crash mid-flush loses at most the unacknowledged
// batch.
//
// The caller marks frames dead with Release. Once a flush finds the
// file's dead bytes above its live bytes plus a fixed floor, it compacts:
// after making its batch durable in the current file, it copies the live
// frames, byte for byte and in order, into a temporary file, fsyncs it,
// renames it over the journal and fsyncs the directory; only then does it
// acknowledge the batch. A crash before the rename leaves the old file
// (and a temporary file that Open removes); a crash after it leaves the
// compacted file. Both replay to the same live set. A compaction that
// fails leaves the old file in place and fails no append.
type Writer struct {
	path string

	// Hook, when non-nil, is called outside the lock at named points of
	// a flush: "sync" before a batch's fsync, and, during a compaction,
	// "temp-written" after the temporary file's header, "temp-synced"
	// before the rename and "renamed" before the directory fsync. An
	// error it returns fails the step that follows. Tests use it to hold
	// a flush or to kill the process at a chosen point.
	Hook func(point string) error

	mu       sync.Mutex
	cond     sync.Cond // broadcast when a flush ends
	queued   []byte    // frames queued since the last flush took its batch
	frames   []frame   // the file's frames, then the queued ones, by number
	taken    int       // frames[:taken] are in the file or the batch being written
	next     uint64    // number of the next queued frame
	durable  uint64    // frames numbered below durable are durable
	fileLen  int64     // bytes of frames[:taken]
	liveLen  int64     // bytes of the live frames in frames[:taken]
	flushing bool
	closed   bool
	err      error // the write failure that stopped the journal

	// Owned by the flusher.
	f        *os.File
	end      int64 // file offset of the next batch
	dirDirty bool  // a compaction's directory fsync failed; retry before the next ack
}

// frame locates one record frame in the journal file.
type frame struct {
	seq  uint64
	off  int64 // file offset, set when a flush takes the frame
	n    int64 // frame length, header included
	live bool
}

// Open opens (or creates) the journal at path, replays its records, and
// returns a Writer positioned for appends. A torn final record — the
// kill -9 signature — is dropped and truncated away; any other decode
// failure fails closed with the typed error. A compaction's leftover
// temporary file is removed. The returned records are in append order,
// numbered from 0 for Release, and their payloads share the one buffer
// the file was read into.
func Open(path string) (*Writer, []Record, error) {
	if err := os.Remove(path + tempSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w, recs, err := open(path, f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w, recs, nil
}

func open(path string, f *os.File) (*Writer, []Record, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	w := &Writer{path: path, f: f}
	w.cond.L = &w.mu
	if len(data) == 0 {
		// Fresh file: write the header.
		if _, err := f.Write(encodeHeader()); err != nil {
			return nil, nil, err
		}
		w.end = headerLen
		return w, nil, f.Sync()
	}
	if err := checkHeader(data); err != nil {
		return nil, nil, err
	}
	recs, good, err := scan(data)
	if err != nil {
		return nil, nil, err
	}
	if good < len(data) {
		// Torn tail: truncate so the next append starts on a clean
		// boundary.
		if err := f.Truncate(int64(good)); err != nil {
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		return nil, nil, err
	}
	w.frames = make([]frame, len(recs))
	off := int64(headerLen)
	for i, r := range recs {
		n := int64(frameLen + len(r.Payload))
		w.frames[i] = frame{seq: uint64(i), off: off, n: n, live: true}
		off += n
	}
	w.taken = len(recs)
	w.next, w.durable = uint64(len(recs)), uint64(len(recs))
	w.end = int64(good)
	w.fileLen = int64(good - headerLen)
	w.liveLen = w.fileLen
	return w, recs, nil
}

// Queue adds records to the next flush and returns the number of the
// first; the records are numbered consecutively after the ones Open
// returned. It never touches the disk: Wait makes the records durable.
// The records of one call always reach the file in the same write. Once
// the journal has stopped or closed, Queue drops the records and Wait
// reports why.
func (w *Writer) Queue(recs ...Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.next
	for _, r := range recs {
		if w.err == nil && !w.closed {
			w.queued = appendFrame(w.queued, r.Kind, r.Payload)
			w.frames = append(w.frames, frame{seq: w.next, n: int64(frameLen + len(r.Payload)), live: true})
		}
		w.next++
	}
	return first
}

// Wait blocks until record seq and every record before it are durable,
// leading a flush itself if none is in progress, and returns nil, or the
// error that stopped the journal.
func (w *Writer) Wait(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq >= w.next {
		return fmt.Errorf("journal: record %d was never queued", seq)
	}
	for seq >= w.durable {
		switch {
		case w.err != nil:
			return w.err
		case w.closed:
			return errClosed
		case w.flushing:
			w.cond.Wait()
		default:
			w.flushLocked(false)
		}
	}
	return nil
}

// Append queues one record and waits until it is durable.
func (w *Writer) Append(kind uint32, payload []byte) error {
	return w.Wait(w.Queue(Record{Kind: kind, Payload: payload}))
}

// Release marks records dead, so a compaction drops them. Numbers that
// are unknown or already dead are ignored.
func (w *Writer) Release(seqs ...uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seq := range seqs {
		i, ok := slices.BinarySearchFunc(w.frames, seq, func(f frame, s uint64) int { return cmp.Compare(f.seq, s) })
		if !ok || !w.frames[i].live {
			continue
		}
		w.frames[i].live = false
		if i < w.taken {
			w.liveLen -= w.frames[i].n
		}
	}
}

// Err returns the write failure that stopped the journal, or nil.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close makes every queued record durable, compacts the file if it holds
// any dead bytes, so the next Open replays only live records, and closes
// it. It returns the error that stopped the journal, if any.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.cond.Wait()
	}
	if w.closed {
		return errClosed
	}
	if w.err == nil {
		w.flushLocked(true)
	}
	w.closed = true
	w.cond.Broadcast()
	err := w.err
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flushLocked makes every queued frame durable with one write and one
// fsync, then compacts when dead bytes exceed live bytes plus
// CompactFloor, or, with force, when there are any. The live set is taken
// together with the batch, so a frame released because of a frame in the
// batch is dropped only by a compaction that also writes that frame.
// w.mu is held on entry and exit but released while the disk is touched;
// flushing keeps other flushers out meanwhile.
func (w *Writer) flushLocked(force bool) {
	w.flushing = true
	batch, upTo := w.queued, w.next
	w.queued = nil
	off := w.end
	for i := w.taken; i < len(w.frames); i++ {
		fr := &w.frames[i]
		fr.off = off
		off += fr.n
		w.fileLen += fr.n
		if fr.live {
			w.liveLen += fr.n
		}
	}
	w.taken = len(w.frames)
	var keep []frame
	if dead := w.fileLen - w.liveLen; dead > w.liveLen+CompactFloor || (force && dead > 0) {
		keep = make([]frame, 0, len(w.frames))
		for _, fr := range w.frames {
			if fr.live {
				keep = append(keep, fr)
			}
		}
	}
	w.mu.Unlock()

	err := w.write(batch)
	compacted := err == nil && keep != nil && w.compact(keep)

	w.mu.Lock()
	if err != nil {
		w.err = err
	} else {
		w.durable = upTo
	}
	if compacted {
		w.rebase(keep)
	}
	w.flushing = false
	w.cond.Broadcast()
}

// write appends batch at the end of the journal file and fsyncs it.
func (w *Writer) write(batch []byte) error {
	if len(batch) > 0 {
		if _, err := w.f.Write(batch); err != nil {
			return err
		}
		w.end += int64(len(batch))
		if err := w.hook("sync"); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	if w.dirDirty {
		// The batch went to a compacted file whose rename is not yet
		// known to be durable.
		if err := syncDir(w.path); err != nil {
			return err
		}
		w.dirDirty = false
	}
	return nil
}

// compact rewrites the journal as the keep frames and reports whether the
// new file replaced the old one. A failure before the rename removes the
// temporary file and leaves the journal as it was. After the rename the
// new file is the journal; if the directory fsync then fails, the next
// flush retries it before acknowledging anything.
func (w *Writer) compact(keep []frame) bool {
	tmp := w.path + tempSuffix
	t, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false
	}
	end, err := w.rewrite(t, keep)
	if err != nil {
		t.Close()
		os.Remove(tmp)
		return false
	}
	w.f.Close()
	w.f, w.end = t, end
	if w.hook("renamed") != nil || syncDir(w.path) != nil {
		w.dirDirty = true
	}
	return true
}

// rewrite fills t with the journal header and the keep frames, copied
// from the current file, fsyncs it and renames it over the journal. It
// returns t's length.
func (w *Writer) rewrite(t *os.File, keep []frame) (int64, error) {
	if _, err := t.Write(encodeHeader()); err != nil {
		return 0, err
	}
	if err := w.hook("temp-written"); err != nil {
		return 0, err
	}
	var body []byte
	if len(keep) > 0 {
		// Read the span the live frames lie in, then slide each frame down
		// over the dead bytes before it.
		base, last := keep[0].off, keep[len(keep)-1]
		span := make([]byte, last.off+last.n-base)
		if _, err := w.f.ReadAt(span, base); err != nil {
			return 0, err
		}
		body = span[:0]
		for _, fr := range keep {
			body = append(body, span[fr.off-base:fr.off-base+fr.n]...)
		}
	}
	if _, err := t.Write(body); err != nil {
		return 0, err
	}
	if err := t.Sync(); err != nil {
		return 0, err
	}
	if err := w.hook("temp-synced"); err != nil {
		return 0, err
	}
	return int64(headerLen + len(body)), os.Rename(t.Name(), w.path)
}

// rebase renumbers the file offsets after a compaction that kept keep:
// the kept frames now lie back to back after the header; those released
// since the compaction began stay as dead bytes, and frames queued since
// are untouched.
func (w *Writer) rebase(keep []frame) {
	kept := w.frames[:0]
	off := int64(headerLen)
	w.fileLen, w.liveLen = 0, 0
	k := 0
	for _, fr := range w.frames[:w.taken] {
		if k == len(keep) || keep[k].seq != fr.seq {
			continue
		}
		k++
		fr.off = off
		off += fr.n
		w.fileLen += fr.n
		if fr.live {
			w.liveLen += fr.n
		}
		kept = append(kept, fr)
	}
	queued := len(w.frames) - w.taken
	w.frames = append(kept, w.frames[w.taken:]...)
	w.taken = len(w.frames) - queued
}

func (w *Writer) hook(point string) error {
	if w.Hook == nil {
		return nil
	}
	return w.Hook(point)
}

// syncDir fsyncs the directory holding path, making a rename in it
// durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile replays a journal file read-only, with the same torn-tail
// lenience as Open (but without repairing the file). The returned
// payloads share the one buffer the file was read into.
func ReadFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, nil
	}
	if err := checkHeader(data); err != nil {
		return nil, err
	}
	recs, _, err := scan(data)
	return recs, err
}
