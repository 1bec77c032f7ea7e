package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// recoveryOf replays the journal at path and returns what OpenService
// would adopt — the recovered jobs without their record numbers, which a
// compaction renumbers — and the id high-water mark. It closes the
// store without writing to it.
func recoveryOf(t *testing.T, path string) ([]recoveredJob, int) {
	t.Helper()
	st, rec, err := openJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		rec[i].rec, rec[i].pos = 0, 0
	}
	top := st.top
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	return rec, top
}

// FuzzStoreCompaction drives the job store with random sequences of
// submitted, terminal and deleted records — legacy running and preempted
// records, terminals and deletions of unknown jobs, and reused ids
// included — and writes the same records to a bare journal that never
// compacts. Compactions interleave: large terminal records push dead bytes
// past the floor mid-stream, and close-and-reopen points compact
// everything dead and replay the result. Recovery from the compacted file
// must equal recovery from the uncompacted one, id high-water mark
// included.
func FuzzStoreCompaction(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 3, 1, 6, 0, 0, 2})                               // delete the top job, reopen, submit
	f.Add([]byte{0, 0, 3, 0, 6, 0, 0, 0, 1, 0, 3, 0, 6, 0})                         // reuse the deleted top id
	f.Add([]byte{0, 0, 0, 1, 3, 0, 0, 0, 1, 0})                                     // reuse a deleted id below the top
	f.Add([]byte{0, 0, 4, 0, 5, 0, 1, 0, 1, 1, 6, 0, 3, 5})                         // legacy kinds, two terminals, unknown delete
	f.Add([]byte{0, 0, 1, 8, 1, 0})                                                 // the later terminal, without a Result, wins
	f.Add([]byte{1, 3, 0, 3, 2, 3, 0, 4, 2, 4, 3, 3, 0, 5, 2, 5, 3, 4, 2, 5, 6, 0}) // large terminals
	big := []byte{}
	for i := 0; i < 40; i++ {
		id := byte(i % 8)
		big = append(big, 0, id, 2, id+24, 3, id)
	}
	f.Add(big) // automatic compactions mid-stream
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		dir := t.TempDir()
		compacted := filepath.Join(dir, "compacted.journal")
		plain := filepath.Join(dir, "plain.journal")
		st, _, err := openJobStore(compacted)
		if err != nil {
			t.Fatal(err)
		}
		raw, _, err := journal.Open(plain)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[string]bool)
		spec := gnpSpec("find")
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%7, ops[i+1]
			id := fmt.Sprintf("job-%d", 1+arg%8)
			var op storeOp
			switch kind {
			case 0:
				if live[id] {
					continue // a duplicate live submission fails replay either way
				}
				live[id] = true
				op, err = submittedOp(&Job{id: id, tenant: "t", spec: spec})
			case 1, 2:
				rec := storeRecord{ID: id, Status: JobDone}
				if arg&8 != 0 {
					rec.Result = &Result{Found: true}
				}
				if kind == 2 {
					rec.Status, rec.Error = JobFailed, strings.Repeat("x", 4096*int(arg/8))
				}
				op, err = encodeOp(recTerminal, rec)
			case 3:
				delete(live, id)
				op = deletedOp(id)
			case 4, 5:
				op, err = encodeOp([]uint32{recRunning, recPreempted}[kind-4], storeRecord{ID: id})
			case 6:
				if err := st.close(); err != nil {
					t.Fatal(err)
				}
				if st, _, err = openJobStore(compacted); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := st.wait(st.queue(op)); err != nil {
				t.Fatal(err)
			}
			if err := raw.Append(op.kind, op.payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
		if err := raw.Close(); err != nil {
			t.Fatal(err)
		}
		want, wantTop := recoveryOf(t, plain)
		got, gotTop := recoveryOf(t, compacted)
		if gotTop != wantTop {
			t.Fatalf("id high-water mark %d after compaction, %d without", gotTop, wantTop)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("compacted journal recovers %d jobs %+v,\nuncompacted %d jobs %+v", len(got), got, len(want), want)
		}
	})
}

// TestServiceJobIDsNeverReused: a deleted job's id is not handed out
// again after a restart, even when it was the newest job and a compaction
// ran between the deletion and the restart.
func TestServiceJobIDsNeverReused(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	svc, err := OpenService(WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		j, err := svc.Submit(gnpSpec("find"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Delete("job-2"); err != nil {
		t.Fatal(err)
	}
	svc.Close() // compacts: job-2's terminal record goes, its submission and deletion stay
	recs, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, r := range recs {
		var sr storeRecord
		if err := json.Unmarshal(r.Payload, &sr); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, fmt.Sprintf("%s:%d", sr.ID, r.Kind))
	}
	slices.Sort(kept)
	if want := []string{"job-1:1", "job-1:3", "job-2:1", "job-2:5"}; !reflect.DeepEqual(kept, want) {
		t.Fatalf("compacted journal holds %v, want %v", kept, want)
	}

	svc2, err := OpenService(WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if _, ok := svc2.Job("job-2"); ok {
		t.Fatal("deleted job resurrected")
	}
	j, err := svc2.Submit(gnpSpec("find"))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-3" {
		t.Fatalf("first job after the restart is %s, want job-3", j.ID())
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceStatusDuringJournalSync: while a submission is held inside
// the journal — in a flush's fsync, or in a compaction's rewrite — status
// reads still return, and the job is not runnable yet.
func TestServiceStatusDuringJournalSync(t *testing.T) {
	for _, point := range []string{"sync", "temp-synced"} {
		t.Run(point, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "jobs.journal")
			if point == "temp-synced" {
				// Dead bytes past the floor, so the first flush compacts.
				w, _, err := journal.Open(jpath)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= 20; i++ {
					sub, err := submittedOp(&Job{id: fmt.Sprintf("job-%d", i), tenant: strings.Repeat("t", 4096), spec: gnpSpec("find")})
					if err != nil {
						t.Fatal(err)
					}
					w.Queue(journal.Record{Kind: sub.kind, Payload: sub.payload})
					del := deletedOp(sub.id)
					if err := w.Append(del.kind, del.payload); err != nil {
						t.Fatal(err)
					}
				}
				w.Close()
			}
			svc, err := OpenService(WithJournal(jpath), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			held, release := make(chan struct{}), make(chan struct{})
			var hold, unhold sync.Once
			unblock := func() { unhold.Do(func() { close(release) }) }
			defer unblock() // before Close, should the test fail while held
			svc.store.w.Hook = func(p string) error {
				if p == point {
					hold.Do(func() {
						close(held)
						<-release
					})
				}
				return nil
			}
			// The second submission is an idempotent hit on the first's
			// job while its record is still on its way to the disk.
			req := SubmitRequest{Spec: gnpSpec("find"), Key: "k"}
			submitted := make(chan *Job, 2)
			submit := func() {
				j, err := svc.SubmitJob(req)
				if err != nil {
					t.Error(err)
				}
				submitted <- j
			}
			go submit()
			<-held
			go submit()
			reads := make(chan ServiceStats)
			go func() {
				svc.Jobs()
				for _, id := range []string{"job-1", "job-21"} {
					svc.Job(id)
				}
				reads <- svc.Stats()
			}()
			select {
			case st := <-reads:
				if st.Queued != 0 || st.Running != 0 {
					t.Errorf("job runnable before its submission is durable: %+v", st)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("status reads blocked behind the journal")
			}
			select {
			case <-submitted:
				t.Fatal("Submit returned before the submission was durable")
			case <-time.After(20 * time.Millisecond):
			}
			unblock()
			j, again := <-submitted, <-submitted
			if j == nil || j != again {
				t.Fatalf("idempotent submissions returned %p and %p", j, again)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServiceSubmitFailsClosed: when the journal cannot make a submission
// durable, Submit fails, the job leaves no trace in the table, a
// concurrent submit of the same key fails too, and the journal stays
// stopped.
func TestServiceSubmitFailsClosed(t *testing.T) {
	svc, err := OpenService(WithJournal(filepath.Join(t.TempDir(), "jobs.journal")), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	unblock := func() { unhold.Do(func() { close(release) }) }
	defer unblock() // before Close, should the test fail while held
	boom := errors.New("injected fsync failure")
	svc.store.w.Hook = func(p string) error {
		if p == "sync" {
			hold.Do(func() {
				close(held)
				<-release
			})
			return boom
		}
		return nil
	}
	req := SubmitRequest{Spec: gnpSpec("find"), Tenant: "acme", Key: "k"}
	errs := make(chan error, 2)
	go func() {
		_, err := svc.SubmitJob(req)
		errs <- err
	}()
	<-held
	go func() {
		// An idempotent hit on the queued job if it runs before the
		// failure lands, a fresh submission to a stopped journal if after.
		_, err := svc.SubmitJob(req)
		errs <- err
	}()
	unblock()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("submit %d: err %v, want the journal failure", i, err)
		}
	}
	if jobs, st := svc.Jobs(), svc.Stats(); len(jobs) != 0 || len(st.Tenants) != 0 || st.JournalError == "" {
		t.Fatalf("failed submission left %d jobs, stats %+v", len(jobs), st)
	}
	if _, err := svc.Submit(gnpSpec("find")); !errors.Is(err, boom) {
		t.Fatalf("submit after the failure: err %v", err)
	}
}

// TestServiceThreeRecordsPerJob: once the history is full, each job
// appends three records — its submission, its terminal record and the
// deletion of the job it evicts.
func TestServiceThreeRecordsPerJob(t *testing.T) {
	const history, jobs = 4, 12
	svc, err := OpenService(WithJournal(filepath.Join(t.TempDir(), "jobs.journal")), WithJobHistory(history), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		j, err := svc.Submit(gnpSpec("twohop"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	if got, want := svc.store.appended, 3*jobs-history; got != want {
		t.Fatalf("%d records appended for %d jobs at history %d, want %d", got, jobs, history, want)
	}
}

// TestJournalSoak runs 10^4 jobs at history 64 through the store — a
// submission with the eviction it causes, then a terminal record carrying
// a real Result — and checks after every job that the file stays within
// twice its live bytes plus the compaction floor. The reopened journal
// recovers exactly the last 64 jobs.
func TestJournalSoak(t *testing.T) {
	const jobs, history = 10000, 64
	res, err := Run(context.Background(), gnpSpec("find"))
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	st, _, err := openJobStore(jpath)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var window []string
	size := make(map[string]int64) // live frame bytes of each job in the window
	var live, peak int64
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("job-%d", i)
		sub, err := submittedOp(&Job{id: id, spec: gnpSpec("find")})
		if err != nil {
			t.Fatal(err)
		}
		ops := []storeOp{sub}
		if len(window) == history {
			ops = append(ops, deletedOp(window[0]))
			live -= size[window[0]]
			delete(size, window[0])
			window = window[1:]
		}
		st.queue(ops...)
		term, err := terminalOp(id, JobDone, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.wait(st.queue(term)); err != nil {
			t.Fatal(err)
		}
		window = append(window, id)
		size[id] = int64(32 + len(sub.payload) + len(term.payload))
		live += size[id]
		fi, err := os.Stat(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if bound := 16 + 2*live + journal.CompactFloor; fi.Size() > bound {
			t.Fatalf("after job %d the journal holds %d bytes, above 2×%d live + floor", i, fi.Size(), live)
		}
		peak = max(peak, fi.Size())
	}
	t.Logf("%d jobs in %v; peak file %d bytes for %d live bytes", jobs, time.Since(start), peak, live)
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	got, top := recoveryOf(t, jpath)
	if top != jobs || len(got) != history {
		t.Fatalf("recovered %d jobs with high-water mark %d", len(got), top)
	}
	for k, r := range got {
		if want := fmt.Sprintf("job-%d", jobs-history+1+k); r.id != want || r.status != JobDone {
			t.Fatalf("recovered job %d is %s (%s), want %s done", k, r.id, r.status, want)
		}
		gotRes, _ := json.Marshal(r.res)
		wantRes, _ := json.Marshal(res)
		if !bytes.Equal(gotRes, wantRes) {
			t.Fatalf("recovered Result of %s drifted", r.id)
		}
	}
}
