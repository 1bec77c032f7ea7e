package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sampleRecords is a mixed-kind, mixed-size record sequence (including an
// empty payload, which must round-trip too).
func sampleRecords() []Record {
	return []Record{
		{Kind: 1, Payload: []byte(`{"id":"job-1"}`)},
		{Kind: 2, Payload: nil},
		{Kind: 3, Payload: bytes.Repeat([]byte("x"), 1024)},
		{Kind: 7, Payload: []byte{0, 1, 2, 0xFF}},
	}
}

func writeSample(t *testing.T, path string) []Record {
	t.Helper()
	w, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, r := range want {
		if err := w.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// recordsEqual compares modulo the nil-vs-empty payload distinction,
// which the container does not preserve (an empty payload decodes as
// empty, not nil).
func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestJournalAppendReopen: records appended in one session replay
// identically in the next, and appends continue cleanly after a reopen.
func TestJournalAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	want := writeSample(t, path)

	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if err := w.Append(9, []byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	got2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(want)+1 || got2[len(want)].Kind != 9 {
		t.Fatalf("post-reopen append lost: %+v", got2)
	}
}

// TestJournalTornTail: a partial final frame — the kill -9 signature — is
// dropped on Open, the file is repaired, and subsequent appends land
// cleanly.
func TestJournalTornTail(t *testing.T) {
	for cut := 1; cut < frameLen+8; cut += 3 {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		want := writeSample(t, path)
		// Tear: append a frame, then chop `cut` bytes short of its end.
		full := EncodeRecord(42, []byte("torn away by the crash"))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, full[:len(full)-cut]...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		w, got, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("cut %d: torn tail corrupted earlier records", cut)
		}
		if err := w.Append(5, []byte("after repair")); err != nil {
			t.Fatal(err)
		}
		w.Close()
		got2, err := ReadFile(path)
		if err != nil {
			t.Fatalf("cut %d: reread after repair: %v", cut, err)
		}
		if len(got2) != len(want)+1 || got2[len(want)].Kind != 5 {
			t.Fatalf("cut %d: repair did not leave a clean append boundary", cut)
		}
	}
}

// TestJournalFailsClosed: mid-file corruption (not a torn tail) is a
// typed, fail-closed error from both Open and Decode.
func TestJournalFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	writeSample(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"bad magic", func(d []byte) []byte { d[0] ^= 0xFF; return d }, ErrCorrupt},
		{"bad version", func(d []byte) []byte { d[4] = 99; return d }, ErrVersion},
		{"nonzero reserved", func(d []byte) []byte { d[12] = 1; return d }, ErrCorrupt},
		{"first record checksum", func(d []byte) []byte { d[headerLen+frameLen] ^= 0xFF; return d }, ErrCorrupt},
		{"first record kind", func(d []byte) []byte { d[headerLen+4] ^= 0xFF; return d }, ErrCorrupt},
		{"absurd length", func(d []byte) []byte {
			d[headerLen+3] = 0xFF // payload length high byte: > maxPayloadLen
			return d
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		mut := tc.mutate(append([]byte(nil), data...))
		p := filepath.Join(t.TempDir(), "mut.journal")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(p); !errors.Is(err, tc.want) {
			t.Errorf("%s: Open err %v, want %v", tc.name, err, tc.want)
		}
		if _, err := Decode(mut); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode err %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestJournalDecodeStrict: the strict whole-image decoder flags torn
// tails as ErrTruncated rather than silently dropping them.
func TestJournalDecodeStrict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	writeSample(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	if _, err := Decode(data[:len(data)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn image: err %v, want ErrTruncated", err)
	}
	if _, err := Decode(data[:headerLen-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn header: err %v, want ErrTruncated", err)
	}
}

// FuzzJournalRoundTrip pins the record frame's fail-closed contract,
// mirroring FuzzCheckpointRoundTrip: whatever bytes arrive, DecodeRecord
// either rejects them with a typed error or accepts a record — and every
// accepted record re-encodes byte-identically to the bytes it consumed.
// There is no third outcome (a wrong-but-successful replay source).
func FuzzJournalRoundTrip(f *testing.F) {
	valid := EncodeRecord(3, []byte("fuzz seed payload"))
	f.Add(valid)
	f.Add(valid[:frameLen])     // header intact, payload missing -> truncated
	f.Add(valid[:7])            // sub-frame truncation
	f.Add(EncodeRecord(0, nil)) // empty payload, kind 0
	for _, off := range []int{0, 3, 4, 8, 15, frameLen, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xFF
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), valid...), valid...)) // two frames back to back
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("DecodeRecord failed with untyped error: %v", err)
			}
			return
		}
		consumed := data[:len(data)-len(rest)]
		re := EncodeRecord(rec.Kind, rec.Payload)
		if !bytes.Equal(re, consumed) {
			t.Fatalf("accepted record does not re-encode byte-identically")
		}
		rec2, rest2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(rest2) != 0 || rec2.Kind != rec.Kind || !bytes.Equal(rec2.Payload, rec.Payload) {
			t.Fatalf("re-decode disagrees with first decode")
		}
	})
}

// TestJournalWholeFileRoundTrip: a full journal image decodes to the
// records that were appended, and Decode(re-encoded image) agrees.
func TestJournalWholeFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	want := writeSample(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, want) {
		t.Fatalf("decode mismatch: %+v", got)
	}
	// Rebuild the image from the decoded records: byte-identical.
	re := encodeHeader()
	for _, r := range got {
		re = append(re, EncodeRecord(r.Kind, r.Payload)...)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("journal image does not re-encode byte-identically")
	}
	if !reflect.DeepEqual(got, got) {
		t.Fatal("unreachable")
	}
}

// fileRecords replays path read-only.
func fileRecords(t *testing.T, path string) []Record {
	t.Helper()
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJournalGroupCommit: 32 goroutines appending at once share fsyncs,
// and every append that returned nil is in the file after a reopen.
func TestJournalGroupCommit(t *testing.T) {
	const appenders, each = 32, 16
	path := filepath.Join(t.TempDir(), "jobs.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int64
	w.Hook = func(point string) error {
		if point == "sync" {
			syncs.Add(1)
			time.Sleep(100 * time.Microsecond) // let the other appenders queue
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, appenders*each)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(uint32(a), []byte(fmt.Sprintf("appender %d record %d", a, i))); err != nil {
					errs <- err
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	next := make([]int, appenders) // each appender's records stay in its order
	for _, r := range fileRecords(t, path) {
		want := fmt.Sprintf("appender %d record %d", r.Kind, next[r.Kind])
		if string(r.Payload) != want {
			t.Fatalf("record %q, want %q", r.Payload, want)
		}
		next[r.Kind]++
		got[want] = true
	}
	if len(got) != appenders*each {
		t.Fatalf("%d of %d acknowledged records survived", len(got), appenders*each)
	}
	if n := syncs.Load(); n >= appenders*each {
		t.Fatalf("%d fsyncs for %d records: no group commit", n, appenders*each)
	} else {
		t.Logf("%d records in %d fsyncs", appenders*each, n)
	}
}

// churn appends n records of size bytes each, marking all but every
// keep-th dead as it queues them, the way the job store does, and returns
// the payloads of the kept ones in order.
func churn(t *testing.T, w *Writer, n, size, keep int) [][]byte {
	t.Helper()
	var kept [][]byte
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i)}, size)
		seq := w.Queue(Record{Kind: 1, Payload: p})
		if i%keep == 0 {
			kept = append(kept, p)
		} else {
			w.Release(seq)
		}
		if err := w.Wait(seq); err != nil {
			t.Fatal(err)
		}
	}
	return kept
}

// subsequence reports whether want appears in got in order.
func subsequence(want, got [][]byte) bool {
	for _, g := range got {
		if len(want) > 0 && bytes.Equal(g, want[0]) {
			want = want[1:]
		}
	}
	return len(want) == 0
}

func payloads(recs []Record) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r.Payload
	}
	return out
}

// TestJournalCompaction: once dead bytes pass live bytes plus the floor a
// flush rewrites the file to its live frames, in order and byte for byte;
// the file stays within twice its live bytes plus the floor after every
// flush, and appends continue on the new file.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1000
	var kept [][]byte
	for round := 0; round < 4; round++ {
		kept = append(kept, churn(t, w, 100, size, 10)...)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		live := int64(len(kept) * (frameLen + size))
		if st.Size() > headerLen+2*live+CompactFloor {
			t.Fatalf("round %d: file %d bytes for %d live bytes", round, st.Size(), live)
		}
	}
	if !subsequence(kept, payloads(fileRecords(t, path))) {
		t.Fatal("compaction lost or reordered live records")
	}
	// Close compacts whatever is dead; the next Open sees only live
	// records, in order.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(payloads(recs), kept) {
		t.Fatalf("reopen after close: %d records, want the %d live ones", len(recs), len(kept))
	}
	if err := w.Append(2, []byte("after compaction")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if recs := fileRecords(t, path); len(recs) != len(kept)+1 || recs[len(kept)].Kind != 2 {
		t.Fatal("append after compaction lost")
	}
}

// TestJournalCompactionFailure: a compaction that fails before its rename
// leaves the old file in place, removes its temporary file and fails no
// append; one whose directory fsync fails keeps the new file, and the next
// flush syncs the directory before it acknowledges anything.
func TestJournalCompactionFailure(t *testing.T) {
	for _, point := range []string{"temp-written", "temp-synced", "renamed"} {
		t.Run(point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "jobs.journal")
			w, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var failed, checked, dirtyAtNextSync bool
			var before [][]byte
			w.Hook = func(p string) error {
				switch {
				case p == point && !failed:
					failed = true
					before = payloads(fileRecords(t, path))
					return errors.New("injected failure")
				case p == "sync" && failed && !checked:
					// The next flush: it appended to the old file, or
					// it retries the directory fsync after this sync.
					checked = true
					after := payloads(fileRecords(t, path))
					if point != "renamed" && (len(after) <= len(before) || !reflect.DeepEqual(after[:len(before)], before)) {
						t.Errorf("old file not kept: %d records before the failure, %d after", len(before), len(after))
					}
					dirtyAtNextSync = w.dirDirty
				}
				return nil
			}
			kept := churn(t, w, 100, 1000, 10) // dead bytes pass the threshold
			if !checked {
				t.Fatal("no compaction failed, or no flush followed it")
			}
			if w.Err() != nil {
				t.Fatalf("failed compaction stopped the journal: %v", w.Err())
			}
			if _, err := os.Stat(path + tempSuffix); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("temporary file left behind: %v", err)
			}
			if point == "renamed" && (!dirtyAtNextSync || w.dirDirty) {
				t.Fatalf("directory fsync not retried: dirty at next sync %v, now %v", dirtyAtNextSync, w.dirDirty)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if got := payloads(fileRecords(t, path)); !reflect.DeepEqual(got, kept) {
				t.Fatalf("%d records after close, want the %d live ones", len(got), len(kept))
			}
		})
	}
}

// TestJournalSyncFailureStops: a failed fsync fails the appends of its
// batch and stops the journal; later appends fail too.
func TestJournalSyncFailureStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync failure")
	w.Hook = func(p string) error {
		if p == "sync" {
			return boom
		}
		return nil
	}
	if err := w.Append(1, []byte("lost")); !errors.Is(err, boom) {
		t.Fatalf("append err %v", err)
	}
	w.Hook = nil
	if err := w.Append(1, []byte("after")); !errors.Is(err, boom) || !errors.Is(w.Err(), boom) {
		t.Fatalf("append after a failure: %v (Err %v)", err, w.Err())
	}
	w.Close()
}

// TestJournalOpenRemovesTemp: Open removes a compaction's leftover
// temporary file and replays the journal itself.
func TestJournalOpenRemovesTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	want := writeSample(t, path)
	if err := os.WriteFile(path+tempSuffix, append(encodeHeader(), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !recordsEqual(got, want) {
		t.Fatal("replay mismatch")
	}
	if _, err := os.Stat(path + tempSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stray temporary file survived Open: %v", err)
	}
}

// TestJournalReadSharesBuffer: Open and ReadFile return payloads that
// share the buffer the file was read into, so their allocations do not
// grow with the record count; Decode still copies.
func TestJournalReadSharesBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		w.Queue(Record{Kind: 1, Payload: []byte(fmt.Sprintf("record %d", i))})
	}
	if err := w.Wait(n - 1); err != nil {
		t.Fatal(err)
	}
	w.Close()
	allocs := testing.AllocsPerRun(3, func() {
		if recs, err := ReadFile(path); err != nil || len(recs) != n {
			t.Fatalf("%d records, err %v", len(recs), err)
		}
	})
	if allocs > n/10 {
		t.Fatalf("ReadFile made %.0f allocations for %d records", allocs, n)
	}
	allocs = testing.AllocsPerRun(3, func() {
		w, recs, err := Open(path)
		if err != nil || len(recs) != n {
			t.Fatalf("%d records, err %v", len(recs), err)
		}
		w.Close()
	})
	if allocs > n/10 {
		t.Fatalf("Open made %.0f allocations for %d records", allocs, n)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	recs[0].Payload[0] = 'X'
	if data[headerLen+frameLen] == 'X' {
		t.Fatal("Decode payload aliases its input")
	}
}
