package congest

import (
	"runtime"
	"time"
)

// options is the resolved functional-option state shared by Session and
// Service.
type options struct {
	workers       int           // concurrent jobs a Service runs; 0 = GOMAXPROCS
	oracleWorkers int           // oracle count pool; 0 = GOMAXPROCS
	maxVertices   int           // 0 = unlimited
	jobHistory    int           // terminal jobs a Service retains; 0 = default, <0 = unlimited
	queueDepth    int           // pending jobs a Service queues; 0 = default, <0 = unlimited
	tenantQuota   int           // in-flight jobs per tenant; 0 = unlimited
	jobDeadline   time.Duration // server-side per-job deadline; 0 = none
	journalPath   string        // "" = no durability
}

// Option configures a Session, Service or one-shot Run with the functional
// options pattern.
type Option func(*options)

// WithWorkers bounds how many jobs a Service executes concurrently
// (default: GOMAXPROCS). Sessions ignore it; their concurrency is the
// caller's.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithOracleWorkers bounds the worker pool of the centralized oracle's
// triangle counts, which verification reads. The default is all CPUs, for
// a Session and a Service alike: each cached graph is counted once, under
// a sync.Once its concurrent jobs wait on, so the count is no per-job cost
// to bound. Results are identical for every value.
func WithOracleWorkers(n int) Option {
	return func(o *options) { o.oracleWorkers = n }
}

// WithMaxVertices rejects jobs whose graph exceeds n vertices — the
// admission-control knob for servers. Declared sizes (generator and inline
// specs) are rejected before the graph is ever built. Zero (the default)
// admits any size.
func WithMaxVertices(n int) Option {
	return func(o *options) { o.maxVertices = n }
}

// WithJobHistory bounds how many finished jobs a Service retains (their
// Results included): once exceeded, the oldest terminal jobs are evicted
// at the next submission. Queued and running jobs are never evicted. The
// default is 512; negative means unlimited.
func WithJobHistory(n int) Option {
	return func(o *options) { o.jobHistory = n }
}

// WithQueueDepth bounds the Service's pending queue — the backpressure
// knob. Once the queue holds n jobs, further submissions fail with a
// SaturatedError carrying a Retry-After hint instead of growing the
// backlog without bound. The default is 1024; negative means unlimited.
func WithQueueDepth(n int) Option {
	return func(o *options) { o.queueDepth = n }
}

// WithTenantQuota bounds how many in-flight (queued or running) jobs any
// one tenant may hold. A tenant at its quota gets a SaturatedError until
// one of its jobs finishes; other tenants are unaffected — the isolation
// knob for multi-tenant servers. Zero (the default) means unlimited.
func WithTenantQuota(n int) Option {
	return func(o *options) { o.tenantQuota = n }
}

// WithJobDeadline sets the server-side deadline applied to every job's
// execution (measured from when it starts running, not from submission).
// A job exceeding it is cancelled at its next round boundary, finishing
// as JobCancelled with the deterministic prefix result. A per-job
// SubmitRequest.Deadline below the server's wins; one above it is capped.
// Zero (the default) means no server-side deadline.
func WithJobDeadline(d time.Duration) Option {
	return func(o *options) { o.jobDeadline = d }
}

// WithJournal makes the Service durable: every job submission, terminal
// result and deletion is appended to the crash-safe journal at path
// (group-committed: concurrent appends share one fsync), and OpenService
// replays it — terminal jobs
// reappear in the history, and jobs that were queued or running when the
// process died are resubmitted, resuming from their latest checkpoint
// when they have one (byte-identical to an uninterrupted run either way).
// Empty (the default) keeps the service in-memory only. Services with a
// journal should be constructed with OpenService, which can surface a
// corrupt or unwritable journal as an error.
func WithJournal(path string) Option {
	return func(o *options) { o.journalPath = path }
}

func resolveOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers <= 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	return o
}
