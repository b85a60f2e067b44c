package jobd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// The job journal is a write-ahead JSONL log: one record per line, appended
// and fsynced before the state change it describes takes effect. Four
// record kinds cover a job's lifecycle:
//
//	{"kind":"submit","id":1,"time":...,"spec":{...}}
//	{"kind":"start","id":1,"time":...}
//	{"kind":"retry","id":1,"time":...,"attempt":2,"not_before_ms":...}
//	{"kind":"done","id":1,"time":...,"ok":true}
//
// Replay on startup re-queues every job whose submit has no matching done:
// a job that was merely queued is resubmitted as-is, a job that was in
// flight when the process died is re-run from scratch — per-UOW filter
// state is rebuilt by Init under the paper's transparent-copy semantics, so
// re-running a whole job is the coarse-grained version of the UOW-retry
// recovery the coordinator already performs — and a job in retry backoff
// resumes its journaled schedule: the attempt count and the absolute
// not-before time survive the restart, so the backoff neither resets nor
// double-fires.
//
// The log is compacted — rewritten as one snapshot per live job — on
// startup recovery and whenever it outgrows Config.JournalCompactBytes;
// without that it grows without bound across restarts.
type journal struct {
	f    *os.File
	w    *bufio.Writer
	path string
	// size is the current log length in bytes, maintained across appends;
	// dirty means replay found terminal records worth compacting away.
	size  int64
	dirty bool
}

type journalRec struct {
	Kind string    `json:"kind"`
	ID   uint64    `json:"id"`
	Time time.Time `json:"time"`
	Spec *JobSpec  `json:"spec,omitempty"`
	OK   bool      `json:"ok,omitempty"`
	Err  string    `json:"err,omitempty"`
	// Retry records: the attempt count after the failure and the absolute
	// earliest re-dispatch time (Unix milliseconds, so zero is omittable).
	Attempt     int   `json:"attempt,omitempty"`
	NotBeforeMS int64 `json:"not_before_ms,omitempty"`
}

// replayedJob is one journaled job the previous process never finished.
type replayedJob struct {
	ID        uint64
	Spec      JobSpec
	Submitted time.Time
	Started   bool // it was in flight, not just queued
	// Attempts and NotBefore resume a retry-backoff schedule (zero when the
	// job never failed).
	Attempts  int
	NotBefore time.Time
}

// openJournal opens (creating if absent) the journal at path, replays it,
// and returns the jobs to re-queue in id order. Truncated or corrupt
// trailing lines — a crash mid-append — are skipped, not fatal.
func openJournal(path string) (*journal, []replayedJob, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobd: opening journal: %w", err)
	}
	type entry struct {
		spec      *JobSpec
		submitted time.Time
		started   bool
		done      bool
		attempts  int
		notBefore time.Time
	}
	jobs := map[uint64]*entry{}
	dirty := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r journalRec
		if err := json.Unmarshal(line, &r); err != nil {
			dirty = true // a torn write; compaction drops it
			continue
		}
		switch r.Kind {
		case "submit":
			if r.Spec != nil {
				jobs[r.ID] = &entry{spec: r.Spec, submitted: r.Time}
			}
		case "start":
			if e := jobs[r.ID]; e != nil {
				e.started = true
			}
		case "retry":
			if e := jobs[r.ID]; e != nil {
				if e.started {
					dirty = true // supersedes the start record it follows
				}
				e.started = false // the failed run is over; it is queued again
				e.attempts = r.Attempt
				e.notBefore = time.UnixMilli(r.NotBeforeMS)
			}
		case "done":
			if e := jobs[r.ID]; e != nil {
				e.done = true
			}
			dirty = true
		}
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobd: reading journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jobd: sizing journal: %w", err)
	}
	size := st.Size()
	if torn, err := endsTorn(f, size); err != nil || torn {
		// A crash mid-append left a line without its newline: end it, or
		// the next record would be glued onto it and lost on replay.
		if err == nil {
			_, err = f.Write([]byte{'\n'})
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("jobd: ending torn journal tail: %w", err)
		}
		size++
	}
	var replay []replayedJob
	for id, e := range jobs {
		if e.done {
			continue
		}
		replay = append(replay, replayedJob{
			ID: id, Spec: *e.spec, Submitted: e.submitted, Started: e.started,
			Attempts: e.attempts, NotBefore: e.notBefore,
		})
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].ID < replay[j].ID })
	return &journal{f: f, w: bufio.NewWriter(f), path: path, size: size, dirty: dirty}, replay, nil
}

// endsTorn reports whether the log's last byte is not a newline.
func endsTorn(f *os.File, size int64) (bool, error) {
	if size == 0 {
		return false, nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, size-1); err != nil {
		return false, err
	}
	return last[0] != '\n', nil
}

// append writes one record and syncs it to disk; the caller holds the
// server mutex, which is the journal's write ordering.
func (j *journal) append(r journalRec) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.size += int64(len(b)) + 1
	return j.f.Sync()
}

func (j *journal) submit(id uint64, t time.Time, spec *JobSpec) error {
	return j.append(journalRec{Kind: "submit", ID: id, Time: t, Spec: spec})
}

func (j *journal) start(id uint64, t time.Time) error {
	return j.append(journalRec{Kind: "start", ID: id, Time: t})
}

func (j *journal) retry(id uint64, t time.Time, attempt int, notBefore time.Time, cause error) error {
	r := journalRec{Kind: "retry", ID: id, Time: t, Attempt: attempt, NotBeforeMS: notBefore.UnixMilli()}
	if cause != nil {
		r.Err = cause.Error()
	}
	return j.append(r)
}

func (j *journal) done(id uint64, t time.Time, runErr error) error {
	r := journalRec{Kind: "done", ID: id, Time: t, OK: runErr == nil}
	if runErr != nil {
		r.Err = runErr.Error()
	}
	return j.append(r)
}

// compact atomically replaces the log with the given snapshot records: a
// temp file in the same directory, fsynced, then renamed over the old log.
// On any error the existing journal stays in service untouched.
func (j *journal) compact(recs []journalRec) error {
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobd: compacting journal: %w", err)
	}
	w := bufio.NewWriter(f)
	size := int64(0)
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		size += int64(len(b)) + 1
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobd: swapping compacted journal: %w", err)
	}
	// Re-point the append side at the new log.
	j.w.Flush()
	j.f.Close()
	nf, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobd: reopening compacted journal: %w", err)
	}
	j.f, j.w, j.size, j.dirty = nf, bufio.NewWriter(nf), size, false
	return nil
}

func (j *journal) close() {
	j.w.Flush()
	j.f.Close()
}
