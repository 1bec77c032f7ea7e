package congest

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// JobStatus is a Job's lifecycle state.
type JobStatus string

const (
	// JobQueued: submitted, waiting for a worker slot.
	JobQueued JobStatus = "queued"
	// JobRunning: executing.
	JobRunning JobStatus = "running"
	// JobDone: finished with a result.
	JobDone JobStatus = "done"
	// JobCancelled: stopped by Cancel, a deadline, or service shutdown; the
	// result holds the deterministic prefix of the uncancelled run.
	JobCancelled JobStatus = "cancelled"
	// JobFailed: could not run (bad graph file, impossible parameters, ...).
	JobFailed JobStatus = "failed"
)

// Job is one submitted run. Its result is deterministic: bit-identical to
// Session.Run of the same spec, no matter how many jobs ran concurrently —
// and, on a journaled Service, no matter how many times the process died
// and recovered in between.
type Job struct {
	id       string
	spec     JobSpec
	tenant   string
	key      string
	priority int
	deadline time.Duration
	seq      int    // submission order, the FIFO tiebreak within a priority
	index    int    // heap position while queued; -1 otherwise
	rec      uint64 // journal number of the job's submitted record
	svc      *Service
	obs      Observer
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}

	mu        sync.Mutex
	status    JobStatus
	res       Result
	err       error
	preempted bool // drained, not finished: stays recoverable in the journal
	// ckptFiles records whether the terminal job holds checkpoint files,
	// decided once, off Service.mu, when it ends or is recovered.
	ckptFiles bool
}

// ID returns the job's service-assigned identifier ("job-1", "job-2", ...).
func (j *Job) ID() string { return j.id }

// Spec returns the job's spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Tenant returns the tenant the job was submitted under ("" for the
// anonymous tenant).
func (j *Job) Tenant() string { return j.tenant }

// Key returns the job's idempotency key ("" if none).
func (j *Job) Key() string { return j.key }

// Priority returns the job's scheduling priority.
func (j *Job) Priority() int { return j.priority }

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Cancel asks the job to stop: a still-queued job finishes as JobCancelled
// immediately; a running job stops at its next round boundary (persisting
// a boundary checkpoint first when checkpointing is on). Cancelling a
// finished job is a no-op.
func (j *Job) Cancel() {
	if j.svc != nil && j.svc.dequeue(j) {
		j.cancel()
		j.svc.finishJob(j, Result{}, context.Canceled)
		return
	}
	j.cancel()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's outcome once terminal: the result, the run
// error (nil unless cancelled or failed), and whether the job has finished
// at all.
func (j *Job) Result() (Result, error, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal := j.status == JobDone || j.status == JobCancelled || j.status == JobFailed
	return j.res, j.err, terminal
}

// Wait blocks until the job is terminal (returning its result and run
// error) or ctx is done (returning ctx.Err() without cancelling the job).
func (j *Job) Wait(ctx context.Context) (Result, error) {
	select {
	case <-j.done:
		res, err, _ := j.Result()
		return res, err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Service multiplexes concurrent jobs over one shared Session: graphs and
// pooled engines are shared, execution is bounded by the WithWorkers
// budget (a fixed worker pool — the budget is structural, not advisory),
// and every job is isolated (own engine, own node set, own cancellation)
// so per-job output is deterministic. Its oracle counts take a Session's
// WithOracleWorkers default. It is the in-process backend of cmd/triserve.
//
// Admission is controlled: the pending queue is bounded (WithQueueDepth),
// tenants are quota-bounded (WithTenantQuota), and a rejected submission
// is a *SaturatedError with a Retry-After hint, never a silent stall.
// Queued jobs run highest-priority first, FIFO within a priority.
//
// With WithJournal the Service is durable: every submission, terminal
// result and deletion is appended to a group-committed (one fsync per
// batch of concurrent appends), self-compacting journal, and a job runs
// only once its submission is durable. OpenService rebuilds the job table from it — jobs with no terminal
// record (in flight when the process died, or preempted by a drain) are
// re-run, resuming from their latest checkpoint when they have one, with
// byte-identical results.
type Service struct {
	session  *Session
	store    *jobStore // nil without WithJournal
	history  int
	workers  int
	queueCap int           // <0 = unlimited
	quota    int           // per-tenant in-flight bound; 0 = unlimited
	deadline time.Duration // server-side per-job deadline; 0 = none

	mu       sync.Mutex
	cond     *sync.Cond // signals workers: pending gained a job, or drain began
	pending  pendingQueue
	jobs     map[string]*Job
	order    []string
	keys     map[string]string // tenant\x00key -> job id (idempotent submits)
	inflight map[string]int    // per-tenant queued+running count
	running  int
	nextID   int
	seq      int
	draining bool
	closed   bool

	jobsWG    sync.WaitGroup // one per accepted non-terminal job
	workersWG sync.WaitGroup // the worker pool
}

// NewService returns a Service. Unless overridden, the last 512 finished
// jobs are retained (see WithJobHistory). NewService panics where
// OpenService would return an error — which cannot happen without
// WithJournal; journaled services should use OpenService.
func NewService(opts ...Option) *Service {
	s, err := OpenService(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenService is NewService with an error return: with WithJournal it
// opens (or creates) the journal, replays it, restores terminal jobs to
// the history, and resubmits every job that was still in flight — with
// Checkpoint.Resume forced on for checkpointing jobs, so they continue
// from their latest persisted boundary rather than from round 0. Either
// way the re-run result is byte-identical to an uninterrupted run, by the
// determinism contract. A corrupt or unwritable journal is an error here,
// never a silently empty service.
func OpenService(opts ...Option) (*Service, error) {
	session := NewSession(opts...)
	o := session.opts
	history := o.jobHistory
	if history == 0 {
		history = 512
	}
	queueCap := o.queueDepth
	if queueCap == 0 {
		queueCap = 1024
	}
	s := &Service{
		session:  session,
		history:  history,
		workers:  o.workers,
		queueCap: queueCap,
		quota:    o.tenantQuota,
		deadline: o.jobDeadline,
		jobs:     make(map[string]*Job),
		keys:     make(map[string]string),
		inflight: make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)
	if o.journalPath != "" {
		store, recovered, err := openJobStore(o.journalPath)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.nextID = store.top // past every id ever assigned, deleted ones too
		s.adopt(recovered)
	}
	for i := 0; i < s.workers; i++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// adopt rebuilds the job table from a journal replay: terminal jobs
// reappear in the history with their stored Results; everything else is
// re-enqueued to run again.
func (s *Service) adopt(recovered []recoveredJob) {
	for _, r := range recovered {
		spec := r.spec
		if r.status == "" && spec.Checkpoint != nil {
			// Resume from the latest persisted boundary instead of round 0.
			cp := *spec.Checkpoint
			cp.Resume = true
			spec.Checkpoint = &cp
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			id:       r.id,
			spec:     spec,
			tenant:   r.tenant,
			key:      r.key,
			priority: r.priority,
			deadline: r.deadline,
			index:    -1,
			rec:      r.rec,
			svc:      s,
			ctx:      ctx,
			cancel:   cancel,
			done:     make(chan struct{}),
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.key != "" {
			s.keys[tenantKey(j.tenant, j.key)] = j.id
		}
		if r.status != "" {
			// Terminal: restore the stored outcome and close the job out.
			j.status = r.status
			j.res = r.res
			j.err = restoreErr(r.errMsg)
			j.ckptFiles = j.holdsCheckpoints()
			cancel()
			close(j.done)
			continue
		}
		j.status = JobQueued
		j.seq = s.seq
		s.seq++
		s.inflight[j.tenant]++
		s.jobsWG.Add(1)
		heap.Push(&s.pending, j)
	}
}

// restoreErr reconstructs a job error from its journaled message.
func restoreErr(msg string) error {
	switch msg {
	case "":
		return nil
	case context.Canceled.Error():
		return context.Canceled
	case context.DeadlineExceeded.Error():
		return context.DeadlineExceeded
	}
	return errors.New(msg)
}

func tenantKey(tenant, key string) string { return tenant + "\x00" + key }

// Session returns the service's underlying session (for synchronous runs
// that should share the service's caches).
func (s *Service) Session() *Session { return s.session }

// Submit validates and enqueues a job under the anonymous tenant,
// returning immediately. The job runs as soon as a worker frees up.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.submit(SubmitRequest{Spec: spec}, nil)
}

// SubmitObserved is Submit with a streaming Observer. The observer's
// callbacks run on the job's worker goroutine.
func (s *Service) SubmitObserved(spec JobSpec, obs Observer) (*Job, error) {
	return s.submit(SubmitRequest{Spec: spec}, obs)
}

// SubmitJob is Submit with full admission metadata: tenant, idempotency
// key, priority and deadline. A resubmission with a key already seen for
// that tenant returns the existing job (whatever its state) instead of
// enqueueing a duplicate. Admission rejections are *SaturatedError.
func (s *Service) SubmitJob(req SubmitRequest) (*Job, error) {
	return s.submit(req, nil)
}

// SubmitJobObserved is SubmitJob with a streaming Observer.
func (s *Service) SubmitJobObserved(req SubmitRequest, obs Observer) (*Job, error) {
	return s.submit(req, obs)
}

func (s *Service) submit(req SubmitRequest, obs Observer) (*Job, error) {
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, fmt.Errorf("congest: service is closed")
	}
	if req.Key != "" {
		if id, ok := s.keys[tenantKey(req.Tenant, req.Key)]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			// The job may have been admitted a moment ago: hand it out
			// only once its submission is durable.
			if s.store != nil {
				if err := s.store.wait(j.rec); err != nil {
					return nil, fmt.Errorf("congest: journal write failed: %w", err)
				}
			}
			return j, nil
		}
	}
	if s.quota > 0 && s.inflight[req.Tenant] >= s.quota {
		err := &SaturatedError{
			Reason:     fmt.Sprintf("tenant %q at quota (%d in-flight jobs)", req.Tenant, s.quota),
			Queued:     len(s.pending),
			RetryAfter: s.retryAfterLocked(),
		}
		s.mu.Unlock()
		return nil, err
	}
	if s.queueCap >= 0 && len(s.pending) >= s.queueCap {
		err := &SaturatedError{
			Reason:     fmt.Sprintf("queue full at %d", s.queueCap),
			Queued:     len(s.pending),
			RetryAfter: s.retryAfterLocked(),
		}
		s.mu.Unlock()
		return nil, err
	}
	deadline := req.Deadline
	if s.deadline > 0 && (deadline <= 0 || deadline > s.deadline) {
		deadline = s.deadline
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.nextID++
	j := &Job{
		id:       fmt.Sprintf("job-%d", s.nextID),
		spec:     req.Spec,
		tenant:   req.Tenant,
		key:      req.Key,
		priority: req.Priority,
		deadline: deadline,
		seq:      s.seq,
		index:    -1,
		svc:      s,
		obs:      obs,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		status:   JobQueued,
	}
	s.seq++
	var op storeOp
	if s.store != nil {
		var err error
		if op, err = submittedOp(j); err != nil {
			s.nextID--
			s.mu.Unlock()
			cancel()
			return nil, fmt.Errorf("congest: journal write failed: %w", err)
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if req.Key != "" {
		s.keys[tenantKey(req.Tenant, req.Key)] = j.id
	}
	s.inflight[req.Tenant]++
	s.jobsWG.Add(1)
	evicted := s.evictLocked()
	if s.store != nil {
		// Fail closed: a job the journal cannot record is a job the
		// service never accepted. The submission and the evictions are
		// queued as one batch, and the wait for it happens after s.mu is
		// released, so status reads and workers never wait on the disk.
		// The job becomes runnable only once its submission is durable.
		ops := []storeOp{op}
		for _, id := range evicted {
			ops = append(ops, deletedOp(id))
		}
		j.rec = s.store.queue(ops...)
		s.mu.Unlock()
		if err := s.store.wait(j.rec); err != nil {
			s.abandon(j, err)
			return nil, fmt.Errorf("congest: journal write failed: %w", err)
		}
		s.mu.Lock()
		if s.draining {
			// The drain has marked the job preempted: it stays
			// recoverable, like every job the drain interrupted.
			s.mu.Unlock()
			s.finishJob(j, Result{}, context.Canceled)
			return j, nil
		}
	}
	heap.Push(&s.pending, j)
	s.cond.Signal()
	s.mu.Unlock()
	return j, nil
}

// abandon undoes the admission of a job whose submission could not be
// made durable: the job leaves no trace in the table, and anyone already
// holding it sees it fail.
func (s *Service) abandon(j *Job, err error) {
	s.mu.Lock()
	s.forgetLocked(j)
	s.releaseLocked(j.tenant)
	s.mu.Unlock()
	j.cancel()
	j.finish(Result{}, err, false)
	s.jobsWG.Done()
}

// forgetLocked removes j from the job table. Callers hold s.mu.
func (s *Service) forgetLocked(j *Job) {
	delete(s.jobs, j.id)
	if j.key != "" {
		delete(s.keys, tenantKey(j.tenant, j.key))
	}
	if i := slices.Index(s.order, j.id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// releaseLocked returns one of tenant's in-flight slots. Callers hold
// s.mu.
func (s *Service) releaseLocked(tenant string) {
	s.inflight[tenant]--
	if s.inflight[tenant] <= 0 {
		delete(s.inflight, tenant)
	}
}

// retryAfterLocked estimates how long a rejected client should wait: one
// second per wave of queued-plus-running work over the worker budget,
// capped at 30s. Callers hold s.mu.
func (s *Service) retryAfterLocked() time.Duration {
	waves := 1 + (len(s.pending)+s.running)/s.workers
	d := time.Duration(waves) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// dequeue removes a still-queued job from the pending heap, reporting
// whether it did. Exactly one caller wins for any job: the worker pop,
// a Cancel, or a drain.
func (s *Service) dequeue(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.index < 0 {
		return false
	}
	heap.Remove(&s.pending, j.index)
	return true
}

// worker is one unit of the WithWorkers budget: it pops the
// highest-priority pending job, runs it to a terminal state, and repeats
// until the service drains. Jobs only ever execute on these goroutines,
// so the budget cannot be exceeded.
func (s *Service) worker() {
	defer s.workersWG.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.draining {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.pending).(*Job)
		s.running++
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

func (s *Service) runJob(j *Job) {
	if j.ctx.Err() != nil {
		s.finishJob(j, Result{}, j.ctx.Err())
		return
	}
	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()
	ctx := j.ctx
	if j.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
		defer cancel()
	}
	res, err := s.session.RunObserved(ctx, j.spec, j.obs)
	s.finishJob(j, res, err)
}

// finishJob records a job's terminal state, journals it, and releases its
// admission accounting. A job cancelled by a drain (preempted) skips the
// terminal record on purpose: the journal then holds only its submission,
// and the next OpenService re-runs it. The record is encoded before s.mu
// is taken and waited for after it is released.
func (s *Service) finishJob(j *Job, res Result, err error) {
	j.cancel()
	j.finish(res, err, j.holdsCheckpoints())
	j.mu.Lock()
	status, preempted := j.status, j.preempted
	j.mu.Unlock()
	var op storeOp
	journaled := s.store != nil && !(preempted && status == JobCancelled)
	if journaled {
		var encErr error
		op, encErr = terminalOp(j.id, status, res, err)
		journaled = encErr == nil
	}
	var seq uint64
	s.mu.Lock()
	if journaled {
		seq = s.store.queue(op)
	}
	s.releaseLocked(j.tenant)
	s.mu.Unlock()
	if journaled {
		s.store.wait(seq)
	}
	s.jobsWG.Done()
}

// finish records the terminal state and whether the job holds checkpoint
// files.
func (j *Job) finish(res Result, err error, ckptFiles bool) {
	j.mu.Lock()
	j.res, j.err = res, err
	j.ckptFiles = ckptFiles
	switch {
	case err == nil && !res.Meta.Cancelled:
		j.status = JobDone
	case err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = JobCancelled
	default:
		j.status = JobFailed
	}
	j.mu.Unlock()
	close(j.done)
}

// evictLocked drops the oldest terminal jobs (and their retained Results)
// while the service holds more than its history budget, and returns their
// ids for the caller to journal, so a restart does not resurrect them.
// Callers hold s.mu.
//
// Jobs still holding live checkpoint files are never evicted: the job
// entry is the only API-reachable owner of its (dir, spec hash) — losing
// it would orphan the files, with no way to resume or Delete-reap them.
func (s *Service) evictLocked() []string {
	if s.history < 0 {
		return nil
	}
	var evicted []string
	keep := s.order[:0]
	excess := len(s.order) - s.history
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.status == JobDone || j.status == JobCancelled || j.status == JobFailed
		ckptFiles := j.ckptFiles
		j.mu.Unlock()
		if excess > 0 && terminal && !ckptFiles {
			delete(s.jobs, id)
			if j.key != "" {
				delete(s.keys, tenantKey(j.tenant, j.key))
			}
			evicted = append(evicted, id)
			excess--
			continue
		}
		keep = append(keep, s.order[i])
	}
	s.order = keep
	return evicted
}

// holdsCheckpoints reports whether the job owns checkpoint files on disk.
// It lists the checkpoint directory, so it never runs under Service.mu:
// finishJob and recovery call it once and record the answer in ckptFiles,
// which evictLocked reads.
func (j *Job) holdsCheckpoints() bool {
	cs := j.spec.Checkpoint
	return cs != nil && len(listCheckpoints(cs.Dir, j.spec.SpecHash())) > 0
}

// listCheckpoints is checkpoint.Rounds, behind a variable so tests can
// count directory listings.
var listCheckpoints = checkpoint.Rounds

// Delete cancels the job if it is still queued or running, waits for it
// to stop, removes it from the service's history (journaling the
// deletion), and reaps its checkpoint files. The one sanctioned way to
// drop a checkpoint-holding job.
func (s *Service) Delete(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("congest: no such job %q", id)
	}
	j.Cancel()
	<-j.done
	s.mu.Lock()
	s.forgetLocked(j)
	var seq uint64
	if s.store != nil {
		seq = s.store.queue(deletedOp(id))
	}
	s.mu.Unlock()
	if s.store != nil {
		s.store.wait(seq)
	}
	if cs := j.spec.Checkpoint; cs != nil {
		if err := checkpoint.Reap(cs.Dir, j.spec.SpecHash()); err != nil {
			return err
		}
		j.mu.Lock()
		j.ckptFiles = false
		j.mu.Unlock()
	}
	return nil
}

// Job returns a submitted job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every submitted job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// ServiceStats is a point-in-time snapshot of the service's load, the
// payload behind the server's /v1/stats endpoint.
type ServiceStats struct {
	// Workers is the concurrent-job budget (WithWorkers).
	Workers int `json:"workers"`
	// QueueDepth is the configured pending-queue bound (<0 = unlimited).
	QueueDepth int `json:"queueDepth"`
	// Queued and Running count jobs in those states right now.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Terminal counts retained finished jobs.
	Terminal int `json:"terminal"`
	// Draining reports that shutdown has begun and admission is closed.
	Draining bool `json:"draining"`
	// Tenants maps each tenant with in-flight jobs to its queued+running
	// count.
	Tenants map[string]int `json:"tenants,omitempty"`
	// JournalError carries the first journal append failure, if any ("" =
	// healthy). Once set, the in-memory job table is still correct but
	// durability has stopped.
	JournalError string `json:"journalError,omitempty"`
}

// Stats returns a snapshot of the service's current load.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	inflight := 0
	var tenants map[string]int
	if len(s.inflight) > 0 {
		tenants = make(map[string]int, len(s.inflight))
		for t, n := range s.inflight {
			tenants[t] = n
			inflight += n
		}
	}
	st := ServiceStats{
		Workers:    s.workers,
		QueueDepth: s.queueCap,
		Queued:     len(s.pending),
		Running:    s.running,
		Terminal:   len(s.jobs) - inflight,
		Draining:   s.draining,
		Tenants:    tenants,
	}
	if s.store != nil {
		if err := s.store.journalErr(); err != nil {
			st.JournalError = err.Error()
		}
	}
	return st
}

// Close drains the service with no deadline: admission stops, queued jobs
// finish as JobCancelled, running jobs stop at their next round boundary
// (persisting a checkpoint first when checkpointing is on), and Close
// blocks until every job is terminal and the worker pool has exited.
// Idempotent; concurrent and repeat calls all block until the drain
// completes. On a journaled service the interrupted jobs get no terminal
// record, so the next OpenService re-runs them. For a bounded shutdown,
// use CloseContext.
func (s *Service) Close() {
	s.CloseContext(context.Background())
}

// CloseContext is Close bounded by ctx: it begins the same drain and
// waits for it to complete, returning nil on a clean drain or ctx's error
// if the deadline expires first. The drain itself keeps going in the
// background either way — only the wait is abandoned, so a caller that
// times out can exit knowing every interrupted job stays recoverable:
// each is marked preempted before it is cancelled, so its cancellation
// never writes a terminal record, and the journal keeps showing it in
// flight.
func (s *Service) CloseContext(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Take the queue: these jobs are finished directly, below.
		pend := make([]*Job, len(s.pending))
		copy(pend, s.pending)
		for _, j := range pend {
			j.index = -1
		}
		s.pending = s.pending[:0]
		// Mark the preemptions before any cancellation, so no interrupted
		// job journals a terminal record and each stays recoverable.
		var interrupted []*Job
		for _, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			terminal := j.status == JobDone || j.status == JobCancelled || j.status == JobFailed
			if !terminal {
				j.preempted = true
			}
			j.mu.Unlock()
			if !terminal {
				interrupted = append(interrupted, j)
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		for _, j := range pend {
			j.cancel()
			s.finishJob(j, Result{}, context.Canceled)
		}
		for _, j := range interrupted {
			j.cancel()
		}
	} else {
		s.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		s.workersWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		first := !s.closed
		s.closed = true
		s.mu.Unlock()
		if first && s.store != nil {
			s.store.close()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("congest: drain interrupted: %w", ctx.Err())
	}
}
