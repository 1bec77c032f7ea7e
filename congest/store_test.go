package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
)

// gate blocks a job on its worker goroutine at the first round boundary,
// so tests can hold a worker busy (and release it) deterministically.
type gate struct {
	recorder
	started chan struct{}
	unblock chan struct{}
	once    sync.Once
}

func newGate() *gate {
	g := &gate{started: make(chan struct{}), unblock: make(chan struct{})}
	g.onRound = func(int) {
		g.once.Do(func() {
			close(g.started)
			<-g.unblock
		})
	}
	return g
}

func (g *gate) release() { close(g.unblock) }

// TestServiceJournalRestartHistory: a journaled service rebuilds its job
// table — ids, statuses, results, idempotency keys, and the id counter —
// from the journal alone.
func TestServiceJournalRestartHistory(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	svc, err := OpenService(WithJournal(jpath), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{gnpSpec("list"), gnpSpec("find"), gnpSpec("twohop")}
	var jobs []*Job
	for i, spec := range specs {
		req := SubmitRequest{Spec: spec, Tenant: "acme", Priority: i}
		if i == 0 {
			req.Key = "key-0"
		}
		j, err := svc.SubmitJob(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	svc.Close()

	svc2, err := OpenService(WithJournal(jpath), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Jobs(); len(got) != len(jobs) {
		t.Fatalf("restart restored %d jobs, want %d", len(got), len(jobs))
	}
	for i, j := range jobs {
		r, ok := svc2.Job(j.ID())
		if !ok {
			t.Fatalf("job %s lost across restart", j.ID())
		}
		if r.Status() != JobDone || r.Tenant() != "acme" || r.Priority() != i {
			t.Fatalf("job %s restored as %s tenant=%q priority=%d", j.ID(), r.Status(), r.Tenant(), r.Priority())
		}
		wantRes, _, _ := j.Result()
		gotRes, _, terminal := r.Result()
		if !terminal {
			t.Fatalf("job %s not terminal after restart", j.ID())
		}
		wantJSON, _ := json.Marshal(wantRes)
		gotJSON, _ := json.Marshal(gotRes)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("job %s result drifted across restart:\ngot  %s\nwant %s", j.ID(), gotJSON, wantJSON)
		}
	}
	// The idempotency key survives: resubmitting returns the restored job,
	// not a duplicate.
	dup, err := svc2.SubmitJob(SubmitRequest{Spec: specs[0], Tenant: "acme", Key: "key-0"})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID() != jobs[0].ID() {
		t.Fatalf("key resubmit created %s, want %s", dup.ID(), jobs[0].ID())
	}
	// The id counter continues past the restored jobs.
	fresh, err := svc2.Submit(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := map[string]bool{jobs[0].ID(): true, jobs[1].ID(): true, jobs[2].ID(): true}[fresh.ID()]; clash {
		t.Fatalf("fresh job reused id %s", fresh.ID())
	}
	if _, err := fresh.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRecoverRerunsFromScratch: a job that was in flight at crash
// time (submitted+running records, no terminal) is re-run on the next
// open, and its result is bit-identical to an uninterrupted run.
func TestServiceRecoverRerunsFromScratch(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	spec := gnpSpec("list")
	// Forge the crash leftovers directly, through the bare journal, so
	// every record stays in the file: the journal shows the job accepted
	// and started, and then the process died.
	w, recs, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	sub, err := submittedOp(&Job{id: "job-1", tenant: "acme", spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sub.kind, sub.payload); err != nil {
		t.Fatal(err)
	}
	// A running record, which older builds wrote when a worker started
	// the job: replay must still accept it.
	if err := w.Append(recRunning, []byte(`{"id":"job-1"}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	svc, err := OpenService(WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	j, ok := svc.Job("job-1")
	if !ok {
		t.Fatal("in-flight job not recovered")
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSession(WithOracleWorkers(1)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered re-run not byte-identical:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestServiceDrainRecoverResume is the drain/recovery contract end to
// end: CloseContext preempts a running checkpointing job (it gets no
// terminal record), and the next OpenService re-runs it —
// resuming from its latest checkpoint — to a Result byte-identical to a
// straight-through run.
func TestServiceDrainRecoverResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	spec := ckptSpec("find", t.TempDir(), 2)

	svc, err := OpenService(WithJournal(jpath), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	g := newGate()
	j, err := svc.SubmitObserved(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	// Release the gate only once the drain has cancelled the job, so the
	// preemption deterministically lands mid-run.
	go func() {
		<-j.ctx.Done()
		g.release()
	}()
	if err := svc.CloseContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.Status() != JobCancelled {
		t.Fatalf("drained job status %s", j.Status())
	}

	svc2, err := OpenService(WithJournal(jpath), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, ok := svc2.Job(j.ID())
	if !ok {
		t.Fatal("preempted job not recovered")
	}
	if cp := j2.Spec().Checkpoint; cp == nil || !cp.Resume {
		t.Fatalf("recovered job does not resume: %+v", j2.Spec().Checkpoint)
	}
	got, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if j2.Status() != JobDone {
		t.Fatalf("recovered job status %s", j2.Status())
	}
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("resumed result not byte-identical:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestServiceBackpressure: a full pending queue rejects submissions with
// a typed SaturatedError carrying a Retry-After hint, and drains back to
// accepting once capacity frees.
func TestServiceBackpressure(t *testing.T) {
	svc := NewService(WithWorkers(1), WithQueueDepth(1))
	defer svc.Close()
	g := newGate()
	blocker, err := svc.SubmitObserved(gnpSpec("list"), g)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	queued, err := svc.Submit(gnpSpec("find"))
	if err != nil {
		t.Fatalf("submission within queue depth rejected: %v", err)
	}
	_, err = svc.Submit(gnpSpec("twohop"))
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated submit err %v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("saturated submit err %T, want *SaturatedError", err)
	}
	if sat.Queued != 1 || sat.RetryAfter <= 0 {
		t.Fatalf("saturation hint %+v", sat)
	}
	if st := svc.Stats(); st.Queued != 1 || st.Running != 1 || st.Draining {
		t.Fatalf("stats %+v", st)
	}
	g.release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Capacity freed: admission opens again.
	retry, err := svc.Submit(gnpSpec("twohop"))
	if err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
	if _, err := retry.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceTenantQuota: one tenant at its quota is rejected without
// affecting another.
func TestServiceTenantQuota(t *testing.T) {
	svc := NewService(WithWorkers(1), WithTenantQuota(1))
	defer svc.Close()
	g := newGate()
	blocker, err := svc.SubmitJobObserved(SubmitRequest{Spec: gnpSpec("list"), Tenant: "a"}, g)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	if _, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("find"), Tenant: "a"}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("tenant over quota err %v, want ErrSaturated", err)
	}
	other, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("find"), Tenant: "b"})
	if err != nil {
		t.Fatalf("unrelated tenant rejected: %v", err)
	}
	g.release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Quota released with the finished job.
	again, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("twohop"), Tenant: "a"})
	if err != nil {
		t.Fatalf("tenant still over quota after drain: %v", err)
	}
	if _, err := again.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServicePriorityOrder: queued jobs start highest-priority first,
// FIFO within a priority.
func TestServicePriorityOrder(t *testing.T) {
	svc := NewService(WithWorkers(1))
	defer svc.Close()
	g := newGate()
	blocker, err := svc.SubmitObserved(gnpSpec("list"), g)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started

	var mu sync.Mutex
	var started []int
	mark := func(tag int) Observer {
		r := &recorder{}
		var once sync.Once
		r.onRound = func(int) {
			once.Do(func() {
				mu.Lock()
				started = append(started, tag)
				mu.Unlock()
			})
		}
		return r
	}
	var jobs []*Job
	for _, p := range []int{1, 3, 2, 3} {
		j, err := svc.SubmitJobObserved(SubmitRequest{Spec: gnpSpec("find"), Priority: p}, mark(p*10+len(jobs)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	g.release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{31, 33, 22, 10} // priority 3 FIFO (tags 31, 33), then 2, then 1
	mu.Lock()
	defer mu.Unlock()
	if len(started) != len(want) {
		t.Fatalf("started %v", started)
	}
	for i := range want {
		if started[i] != want[i] {
			t.Fatalf("start order %v, want %v", started, want)
		}
	}
}

// TestServiceDeadline: a job over its server-side deadline is cancelled
// at its next round boundary with the deterministic prefix result.
func TestServiceDeadline(t *testing.T) {
	svc := NewService(WithWorkers(1), WithJobDeadline(5*time.Millisecond))
	defer svc.Close()
	g := newGate()
	j, err := svc.SubmitObserved(gnpSpec("list"), g)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the job past its deadline, then let it reach the next round
	// boundary, where the expired context stops it. Under load the
	// deadline can expire before round 0 ends, and the job then finishes
	// without ever starting the gate.
	select {
	case <-g.started:
		time.Sleep(20 * time.Millisecond)
	case <-j.Done():
	}
	g.release()
	res, err := j.Wait(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err %v", err)
	}
	if j.Status() != JobCancelled || !res.Meta.Cancelled {
		t.Fatalf("deadlined job status %s, meta %+v", j.Status(), res.Meta)
	}
	// A request deadline above the server's is capped; one below it wins.
	long, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("find"), Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if long.deadline != 5*time.Millisecond {
		t.Fatalf("request deadline not capped: %s", long.deadline)
	}
	short, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("find"), Deadline: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if short.deadline != time.Millisecond {
		t.Fatalf("request deadline overridden: %s", short.deadline)
	}
}

// TestServiceIdempotentKey: a tenant resubmitting the same key gets the
// same job; keys are scoped per tenant.
func TestServiceIdempotentKey(t *testing.T) {
	svc := NewService(WithWorkers(2))
	defer svc.Close()
	a, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("list"), Tenant: "t1", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("list"), Tenant: "t1", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same tenant+key created two jobs")
	}
	c, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("list"), Tenant: "t2", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("key leaked across tenants")
	}
	for _, j := range []*Job{a, c} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Keys resolve to terminal jobs too — the retry that arrives after the
	// work finished still gets the original result.
	d, err := svc.SubmitJob(SubmitRequest{Spec: gnpSpec("list"), Tenant: "t1", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if d != a {
		t.Fatal("key forgotten after the job finished")
	}
}

// TestServiceCloseContextDeadline: a drain that cannot finish in time
// returns ctx's error while the drain keeps going; a later unbounded
// Close completes it.
func TestServiceCloseContextDeadline(t *testing.T) {
	svc := NewService(WithWorkers(1))
	g := newGate()
	j, err := svc.SubmitObserved(gnpSpec("list"), g)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := svc.CloseContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain err %v", err)
	}
	// Admission is already closed even though the drain timed out.
	if _, err := svc.Submit(gnpSpec("find")); err == nil {
		t.Fatal("draining service accepted a job")
	}
	g.release()
	svc.Close()
	if j.Status() != JobCancelled {
		t.Fatalf("drained job status %s", j.Status())
	}
}

// TestOpenServiceFailsClosed: a corrupt journal (or one holding records
// the service cannot interpret) is an error from OpenService, never a
// silently empty job table.
func TestOpenServiceFailsClosed(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.journal")
	if err := os.WriteFile(garbage, []byte("TRIJ but not really a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenService(WithJournal(garbage)); err == nil {
		t.Fatal("corrupt journal opened")
	}

	unknown := filepath.Join(dir, "unknown.journal")
	w, _, err := journal.Open(unknown)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(99, []byte(`{"id":"job-1"}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := OpenService(WithJournal(unknown)); err == nil {
		t.Fatal("unknown record kind accepted")
	}

	badJSON := filepath.Join(dir, "badjson.journal")
	w, _, err = journal.Open(badJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recSubmitted, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := OpenService(WithJournal(badJSON)); err == nil {
		t.Fatal("malformed record payload accepted")
	}
}

// TestServiceDeleteJournaled: deletion is durable — a deleted job does
// not resurrect on restart.
func TestServiceDeleteJournaled(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.journal")
	svc, err := OpenService(WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	j, err := svc.Submit(gnpSpec("list"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	keep, err := svc.Submit(gnpSpec("find"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := keep.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete(j.ID()); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	svc2, err := OpenService(WithJournal(jpath))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if _, ok := svc2.Job(j.ID()); ok {
		t.Fatal("deleted job resurrected")
	}
	if _, ok := svc2.Job(keep.ID()); !ok {
		t.Fatal("undeleted job lost")
	}
}
