package congest

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
)

// Journal record kinds. The payload of every kind is a JSON storeRecord;
// which fields are set depends on the kind. The service writes only what
// recovery reads: submissions, terminal records and deletions. A job
// without a terminal record is re-run on the next open.
const (
	// recSubmitted: a job entered the service. Carries the full spec and
	// admission metadata — everything needed to re-create the job.
	recSubmitted uint32 = 1
	// recRunning: a worker started the job. No longer written; journals
	// from older builds hold it, and replay skips it.
	recRunning uint32 = 2
	// recTerminal: the job finished. Carries status, Result and error.
	recTerminal uint32 = 3
	// recPreempted: a drain cancelled the job before it finished. No
	// longer written (a preempted job simply gets no terminal record);
	// journals from older builds hold it, and replay skips it.
	recPreempted uint32 = 4
	// recDeleted: the job was deleted (or evicted from history); recovery
	// must not resurrect it.
	recDeleted uint32 = 5
)

// storeRecord is the JSON payload shared by all journal record kinds.
type storeRecord struct {
	ID       string        `json:"id"`
	Tenant   string        `json:"tenant,omitempty"`
	Key      string        `json:"key,omitempty"`
	Priority int           `json:"priority,omitempty"`
	Deadline time.Duration `json:"deadline,omitempty"`
	Spec     *JobSpec      `json:"spec,omitempty"`
	Status   JobStatus     `json:"status,omitempty"`
	Result   *Result       `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// jobStore is the Service's durable side. It turns job-table changes into
// journal records and tracks which records replay still needs, so that
// the journal can compact itself. The Service queues records while it
// holds Service.mu, which also serializes the store's bookkeeping;
// queueing never touches the disk. It waits for the records to be durable
// after releasing the lock, and the journal group-commits those waits. A
// write failure stops the journal for good: the job table stays correct
// in memory, and the error is surfaced through Stats.
type jobStore struct {
	w *journal.Writer

	jobs     map[string]jobRecords // each job in the table -> its live records
	top      int                   // highest job number of any submitted record
	pin      []uint64              // the deleted top job's submitted and deleted records
	appended int                   // records queued since the journal was opened
}

// jobRecords numbers a job's live records: its submission and, once it
// has one, its latest terminal record.
type jobRecords struct {
	sub, term uint64
	done      bool
}

// storeOp is one encoded record, ready to queue.
type storeOp struct {
	kind    uint32
	id      string
	payload []byte
}

func encodeOp(kind uint32, rec storeRecord) (storeOp, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return storeOp{}, fmt.Errorf("congest: encode journal record: %w", err)
	}
	return storeOp{kind: kind, id: rec.ID, payload: payload}, nil
}

func submittedOp(j *Job) (storeOp, error) {
	spec := j.spec
	return encodeOp(recSubmitted, storeRecord{
		ID:       j.id,
		Tenant:   j.tenant,
		Key:      j.key,
		Priority: j.priority,
		Deadline: j.deadline,
		Spec:     &spec,
	})
}

func terminalOp(id string, status JobStatus, res Result, err error) (storeOp, error) {
	rec := storeRecord{ID: id, Status: status, Result: &res}
	if err != nil {
		rec.Error = err.Error()
	}
	return encodeOp(recTerminal, rec)
}

func deletedOp(id string) storeOp {
	op, _ := encodeOp(recDeleted, storeRecord{ID: id}) // an id always encodes
	return op
}

// queue adds ops to the journal as one batch — they reach the file in the
// same write — and returns the number of the first. It never waits on the
// disk; wait does.
func (st *jobStore) queue(ops ...storeOp) uint64 {
	recs := make([]journal.Record, len(ops))
	for i, op := range ops {
		recs[i] = journal.Record{Kind: op.kind, Payload: op.payload}
	}
	first := st.w.Queue(recs...)
	var dead []uint64
	for i, op := range ops {
		dead = st.track(dead, op.kind, op.id, first+uint64(i))
	}
	// Released after queueing, so a compaction that drops a record also
	// writes the record that made it dead.
	st.w.Release(dead...)
	st.appended += len(ops)
	return first
}

// wait blocks until record seq and all before it are durable.
func (st *jobStore) wait(seq uint64) error { return st.w.Wait(seq) }

// track updates the live set for record seq, of kind for job id, and
// appends the records it makes dead to dead. Replay needs each job's
// latest submission and latest terminal record while the job is in the
// table, and nothing of a deleted job — except for the job with the
// highest number, whose submission and deletion stay to carry the id
// high-water mark until a higher-numbered job is submitted.
func (st *jobStore) track(dead []uint64, kind uint32, id string, seq uint64) []uint64 {
	switch kind {
	case recSubmitted:
		if n := jobNumber(id); n > st.top {
			st.top = n
			dead = append(dead, st.pin...)
			st.pin = nil
		}
		st.jobs[id] = jobRecords{sub: seq}
	case recTerminal:
		jr, ok := st.jobs[id]
		if !ok {
			return append(dead, seq) // replay ignores it
		}
		if jr.done {
			dead = append(dead, jr.term)
		}
		jr.term, jr.done = seq, true
		st.jobs[id] = jr
	case recDeleted:
		jr, ok := st.jobs[id]
		if !ok {
			return append(dead, seq)
		}
		delete(st.jobs, id)
		if jr.done {
			dead = append(dead, jr.term)
		}
		if n := jobNumber(id); n > 0 && n == st.top {
			dead = append(dead, st.pin...)
			st.pin = []uint64{jr.sub, seq}
		} else {
			dead = append(dead, jr.sub, seq)
		}
	default: // running and preempted records of older builds: replay skips them
		dead = append(dead, seq)
	}
	return dead
}

// jobNumber parses a service-assigned id, "job-N"; other ids number 0.
func jobNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil {
		return 0
	}
	return n
}

// journalErr returns the write failure that stopped the journal, if any.
func (st *jobStore) journalErr() error { return st.w.Err() }

func (st *jobStore) close() error { return st.w.Close() }

// recoveredJob is one job reconstructed from a journal replay. A job with
// a terminal record carries its final status and Result; one without
// (queued, running or preempted at crash time) has status "" and must be
// re-run.
type recoveredJob struct {
	id       string
	tenant   string
	key      string
	priority int
	deadline time.Duration
	spec     JobSpec
	status   JobStatus // "" while recoverable
	res      Result
	errMsg   string
	rec      uint64 // number of its submitted record
	pos      int    // index of that record among all submissions
}

// openJobStore opens the journal at path, replays it into the recovered
// job list (in submission order) and the live set, and returns the store
// positioned for appends. Replay is fail-closed: a corrupt journal or a
// malformed record payload is an error, never a silently wrong job table.
// The one tolerated defect is a torn final record (the kill -9
// signature), which journal.Open repairs.
func openJobStore(path string) (*jobStore, []recoveredJob, error) {
	w, recs, err := journal.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st := &jobStore{w: w, jobs: make(map[string]jobRecords)}
	out, dead, err := st.replay(recs)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	w.Release(dead...)
	return st, out, nil
}

// replay rebuilds the job table from the journal's records and returns
// the surviving jobs, each once and at its latest submission, with the
// records that are dead.
func (st *jobStore) replay(recs []journal.Record) ([]recoveredJob, []uint64, error) {
	jobs := make(map[string]*recoveredJob)
	var order []string
	var dead []uint64
	for i, rec := range recs {
		var sr storeRecord
		if err := json.Unmarshal(rec.Payload, &sr); err != nil {
			return nil, nil, fmt.Errorf("congest: journal record %d: %w", i, err)
		}
		if sr.ID == "" {
			return nil, nil, fmt.Errorf("congest: journal record %d: missing job id", i)
		}
		switch rec.Kind {
		case recSubmitted:
			if sr.Spec == nil {
				return nil, nil, fmt.Errorf("congest: journal record %d: submitted record without spec", i)
			}
			if _, dup := jobs[sr.ID]; dup {
				return nil, nil, fmt.Errorf("congest: journal record %d: duplicate submission of %q", i, sr.ID)
			}
			jobs[sr.ID] = &recoveredJob{
				id:       sr.ID,
				tenant:   sr.Tenant,
				key:      sr.Key,
				priority: sr.Priority,
				deadline: sr.Deadline,
				spec:     *sr.Spec,
				rec:      uint64(i),
				pos:      len(order),
			}
			order = append(order, sr.ID)
		case recRunning, recPreempted:
			// Written by older builds; recovery re-runs any job without a
			// terminal record, whether or not it had started or been
			// preempted.
		case recTerminal:
			// The latest terminal record is the whole outcome.
			if j := jobs[sr.ID]; j != nil {
				j.status = sr.Status
				j.res = Result{}
				if sr.Result != nil {
					j.res = *sr.Result
				}
				j.errMsg = sr.Error
			}
		case recDeleted:
			delete(jobs, sr.ID)
		default:
			return nil, nil, fmt.Errorf("congest: journal record %d: unknown kind %d", i, rec.Kind)
		}
		dead = st.track(dead, rec.Kind, sr.ID, uint64(i))
	}
	out := make([]recoveredJob, 0, len(jobs))
	for pos, id := range order {
		if j, ok := jobs[id]; ok && j.pos == pos {
			out = append(out, *j)
		}
	}
	return out, dead, nil
}
