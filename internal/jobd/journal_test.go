package jobd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func testSpec(name string) *JobSpec {
	return &JobSpec{Name: name, Tenant: "t"}
}

// A journal holding finished jobs, a queued job, and a job mid-backoff is
// compacted to snapshot records; replaying the compacted log must yield
// exactly the live jobs with their retry schedule intact.
func TestJournalCompactReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jnl, replay, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh journal replayed %d jobs", len(replay))
	}
	base := time.Now().Round(time.Millisecond)
	notBefore := base.Add(10 * time.Second)

	// Job 1 ran to completion, job 2 failed terminally: both compact away.
	// Job 3 is queued untouched; job 4 failed once and waits out a backoff.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(jnl.submit(1, base, testSpec("done")))
	must(jnl.start(1, base))
	must(jnl.done(1, base, nil))
	must(jnl.submit(2, base, testSpec("failed")))
	must(jnl.start(2, base))
	must(jnl.done(2, base, fmt.Errorf("boom")))
	must(jnl.submit(3, base, testSpec("queued")))
	must(jnl.submit(4, base, testSpec("backoff")))
	must(jnl.start(4, base))
	must(jnl.retry(4, base, 1, notBefore, fmt.Errorf("worker lost")))
	jnl.close()

	// Replay the uncompacted log: jobs 3 and 4 are live, 4 resumes retry 1.
	jnl, replay, err = openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !jnl.dirty {
		t.Fatal("journal with terminal records not marked dirty")
	}
	preSize := jnl.size
	checkReplay := func(replay []replayedJob) {
		t.Helper()
		if len(replay) != 2 {
			t.Fatalf("replayed %d jobs, want 2: %+v", len(replay), replay)
		}
		if replay[0].ID != 3 || replay[0].Attempts != 0 {
			t.Fatalf("job 3 replayed as %+v", replay[0])
		}
		if replay[1].ID != 4 || replay[1].Attempts != 1 {
			t.Fatalf("job 4 replayed as %+v", replay[1])
		}
		if got := replay[1].NotBefore.UnixMilli(); got != notBefore.UnixMilli() {
			t.Fatalf("job 4 notBefore %d, want %d", got, notBefore.UnixMilli())
		}
	}
	checkReplay(replay)

	// Compact to the snapshot a server would write: submit (+retry) per
	// live job.
	recs := []journalRec{
		{Kind: "submit", ID: 3, Time: base, Spec: testSpec("queued")},
		{Kind: "submit", ID: 4, Time: base, Spec: testSpec("backoff")},
		{Kind: "retry", ID: 4, Time: base, Attempt: 1, NotBeforeMS: notBefore.UnixMilli()},
	}
	if err := jnl.compact(recs); err != nil {
		t.Fatal(err)
	}
	if jnl.dirty {
		t.Fatal("compacted journal still dirty")
	}
	if jnl.size >= preSize {
		t.Fatalf("compaction did not shrink the log: %d -> %d", preSize, jnl.size)
	}
	// The compacted journal must still accept appends.
	must(jnl.submit(5, base, testSpec("post-compact")))
	jnl.close()

	// Replay the compacted log: same live set, plus the post-compact append.
	jnl2, replay, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.close()
	if jnl2.dirty {
		t.Fatal("compacted journal replayed dirty")
	}
	if len(replay) != 3 {
		t.Fatalf("replayed %d jobs after compaction, want 3: %+v", len(replay), replay)
	}
	checkReplay(replay[:2])
	if replay[2].ID != 5 {
		t.Fatalf("post-compact submit replayed as %+v", replay[2])
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"done"`) {
		t.Fatalf("compacted journal still holds terminal records:\n%s", raw)
	}
}

// A torn trailing line (crash mid-append) is skipped, not fatal, and does
// not corrupt the records before it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jnl, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.submit(1, time.Now(), testSpec("ok")); err != nil {
		t.Fatal(err)
	}
	jnl.close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jnl2, replay, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.close()
	if len(replay) != 1 || replay[0].ID != 1 {
		t.Fatalf("replay after torn tail: %+v", replay)
	}
}

// FuzzJournalReplay replays arbitrary bytes as a journal. Replay must not
// panic, must return unique ascending ids and re-encodable specs, and the
// reopened journal must take an append that a later replay sees, whatever
// the log held before (a torn tail, duplicated or reordered records).
func FuzzJournalReplay(f *testing.F) {
	base := time.Unix(1700000000, 0).UTC()
	rec := func(r journalRec) []byte {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	sub1 := rec(journalRec{Kind: "submit", ID: 1, Time: base, Spec: testSpec("one")})
	sub2 := rec(journalRec{Kind: "submit", ID: 2, Time: base, Spec: testSpec("two")})
	start1 := rec(journalRec{Kind: "start", ID: 1, Time: base})
	retry2 := rec(journalRec{Kind: "retry", ID: 2, Time: base, Attempt: 1, NotBeforeMS: base.UnixMilli()})
	done1 := rec(journalRec{Kind: "done", ID: 1, Time: base, OK: true})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	f.Add([]byte{})
	f.Add(cat(sub1, sub2, start1, retry2, done1))
	f.Add(cat(sub1, sub2, start1[:len(start1)/2]))       // torn tail
	f.Add(cat(sub1, sub1, start1, start1, done1, done1)) // duplicated records
	f.Add(cat(done1, retry2, start1, sub2, sub1))        // reordered records
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jnl, replay, err := openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(1)
		for i, r := range replay {
			if i > 0 && r.ID <= replay[i-1].ID {
				t.Fatalf("replayed ids not unique and ascending: %d after %d", r.ID, replay[i-1].ID)
			}
			b, err := json.Marshal(r.Spec)
			if err == nil {
				err = json.Unmarshal(b, new(JobSpec))
			}
			if err != nil {
				t.Fatalf("job %d: replayed spec does not round-trip: %v", r.ID, err)
			}
			next = r.ID + 1
		}
		err = jnl.submit(next, base, testSpec("appended"))
		jnl.close()
		if err != nil {
			t.Fatalf("append to the reopened journal: %v", err)
		}
		jnl, replay, err = openJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		jnl.close()
		if !slices.ContainsFunc(replay, func(r replayedJob) bool { return r.ID == next && r.Spec.Name == "appended" }) {
			t.Fatalf("appended job %d lost on the next replay", next)
		}
	})
}
