package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// forgeBcastSender returns a copy of a broadcast-mode payload whose first
// active sender id is 2^32-1, which reads back as -1 when taken as an
// int32.
func forgeBcastSender(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	r := NewSnapReader(payload)
	r.take(42 + 72) // the header and the fixed metric counters
	r.I64s()        // per-node words received
	r.I64s()        // per-node words sent
	nrecv, nbcast := r.U32(), r.U32()
	if r.Err() != nil || nrecv != 0 || nbcast == 0 {
		tb.Fatalf("not a broadcast-mode payload with a queued broadcast (err %v, %d receivers, %d senders)", r.Err(), nrecv, nbcast)
	}
	forged := bytes.Clone(payload)
	binary.LittleEndian.PutUint32(forged[r.off:], math.MaxUint32)
	return forged
}

// broadcastCase returns the index of the broadcast-mode snapshot case.
func broadcastCase(tb testing.TB, cases []snapGoldenCase) int {
	for i, c := range cases {
		if c.cfg.Mode == ModeBroadcast {
			return i
		}
	}
	tb.Fatal("no broadcast-mode snapshot case")
	return -1
}

func TestRestoreRejectsNegativeBroadcastSender(t *testing.T) {
	cases := snapGoldenCases()
	c := cases[broadcastCase(t, cases)]
	err := c.engine(t, 0).Restore(forgeBcastSender(t, snapPayload(t, c, 0)))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "broadcast sender") {
		t.Fatalf("restore of a negative broadcast sender: %v, want ErrBadSnapshot naming the sender", err)
	}
}

// FuzzEngineRestore restores arbitrary payloads into a fresh engine of one
// of the snapshot golden cases — unicast, clique, broadcast-mode and
// fault-plan engines — chosen by the first argument. Restore must never
// panic; every error must wrap ErrBadSnapshot, ErrSnapshotMismatch or
// ErrSnapshotState; and a payload it accepts, every unmodified seed among
// them, must snapshot again to the same bytes. The seeds are each case's
// snapshot plus a broadcast-mode one with a sender id of 2^32-1. CI runs
// the seeds; explore with
//
//	go test ./internal/sim -run XXX -fuzz FuzzEngineRestore
func FuzzEngineRestore(f *testing.F) {
	cases := snapGoldenCases()
	seeds := make([][]byte, len(cases))
	for i, c := range cases {
		seeds[i] = snapPayload(f, c, 0)
		f.Add(uint8(i), seeds[i])
	}
	bc := broadcastCase(f, cases)
	f.Add(uint8(bc), forgeBcastSender(f, seeds[bc]))
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		i := int(which) % len(cases)
		eng := cases[i].engine(t, 0)
		if err := eng.Restore(payload); err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotMismatch) && !errors.Is(err, ErrSnapshotState) {
				t.Fatalf("untyped restore error: %v", err)
			}
			if bytes.Equal(payload, seeds[i]) {
				t.Fatalf("%s: its own snapshot was refused: %v", cases[i].name, err)
			}
			return
		}
		again, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot after restore: %v", cases[i].name, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("%s: a restored payload snapshots again to different bytes", cases[i].name)
		}
	})
}
