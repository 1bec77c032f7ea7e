package congest

import (
	"encoding/json"
	"fmt"
	"sync"
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

// jobStore is the Service's durable side: a thin, serialized bridge from
// job lifecycle events to the append-only journal. Submission appends are
// fail-closed (a write error rejects the submission); later transition
// appends record the first error and go quiet — the job table stays
// correct in memory, and the error is surfaced through Stats.
type jobStore struct {
	mu  sync.Mutex
	w   *journal.Writer
	err error // first append failure; once set, the store stops writing
}

func (st *jobStore) append(kind uint32, rec storeRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("congest: encode journal record: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	if err := st.w.Append(kind, payload); err != nil {
		st.err = err
		return err
	}
	return nil
}

func (st *jobStore) submitted(j *Job) error {
	spec := j.spec
	return st.append(recSubmitted, storeRecord{
		ID:       j.id,
		Tenant:   j.tenant,
		Key:      j.key,
		Priority: j.priority,
		Deadline: j.deadline,
		Spec:     &spec,
	})
}

func (st *jobStore) terminal(id string, status JobStatus, res Result, err error) error {
	rec := storeRecord{ID: id, Status: status, Result: &res}
	if err != nil {
		rec.Error = err.Error()
	}
	return st.append(recTerminal, rec)
}

func (st *jobStore) deleted(id string) error {
	return st.append(recDeleted, storeRecord{ID: id})
}

// journalErr returns the first append failure, if any.
func (st *jobStore) journalErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

func (st *jobStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.w.Close()
}

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
}

// openJobStore opens the journal at path, replays it into the recovered
// job list (in submission order), and returns the store positioned for
// appends. Replay is fail-closed: a corrupt journal or a malformed record
// payload is an error, never a silently wrong job table. The one
// tolerated defect is a torn final record (the kill -9 signature), which
// journal.Open repairs.
func openJobStore(path string) (*jobStore, []recoveredJob, error) {
	w, recs, err := journal.Open(path)
	if err != nil {
		return nil, nil, err
	}
	jobs := make(map[string]*recoveredJob)
	var order []string
	for i, rec := range recs {
		var sr storeRecord
		if err := json.Unmarshal(rec.Payload, &sr); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("congest: journal record %d: %w", i, err)
		}
		if sr.ID == "" {
			w.Close()
			return nil, nil, fmt.Errorf("congest: journal record %d: missing job id", i)
		}
		switch rec.Kind {
		case recSubmitted:
			if sr.Spec == nil {
				w.Close()
				return nil, nil, fmt.Errorf("congest: journal record %d: submitted record without spec", i)
			}
			if _, dup := jobs[sr.ID]; dup {
				w.Close()
				return nil, nil, fmt.Errorf("congest: journal record %d: duplicate submission of %q", i, sr.ID)
			}
			jobs[sr.ID] = &recoveredJob{
				id:       sr.ID,
				tenant:   sr.Tenant,
				key:      sr.Key,
				priority: sr.Priority,
				deadline: sr.Deadline,
				spec:     *sr.Spec,
			}
			order = append(order, sr.ID)
		case recRunning, recPreempted:
			// Written by older builds; recovery re-runs any job without a
			// terminal record, whether or not it had started or been
			// preempted.
		case recTerminal:
			if j := jobs[sr.ID]; j != nil {
				j.status = sr.Status
				if sr.Result != nil {
					j.res = *sr.Result
				}
				j.errMsg = sr.Error
			}
		case recDeleted:
			delete(jobs, sr.ID)
		default:
			w.Close()
			return nil, nil, fmt.Errorf("congest: journal record %d: unknown kind %d", i, rec.Kind)
		}
	}
	out := make([]recoveredJob, 0, len(jobs))
	for _, id := range order {
		if j, ok := jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return &jobStore{w: w}, out, nil
}
