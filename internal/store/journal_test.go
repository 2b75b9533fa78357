package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Path() != path {
		t.Fatal("path mismatch")
	}
	if err := j.LogIntent("t1.1", []string{"d1", "d2"}); err != nil {
		t.Fatal(err)
	}
	if err := j.LogCommit("t1.1"); err != nil {
		t.Fatal(err)
	}
	if err := j.LogIntent("t1.2", []string{"d1"}); err != nil {
		t.Fatal(err)
	}
	// No commit record for t1.2: crash here.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	open, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 1 || open[0].Txn != "t1.2" {
		t.Fatalf("open = %+v", open)
	}
	if len(open[0].Docs) != 1 || open[0].Docs[0] != "d1" {
		t.Fatalf("docs = %v", open[0].Docs)
	}
}

func TestJournalCleanRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		if err := j.LogIntent(id, []string{"d"}); err != nil {
			t.Fatal(err)
		}
		if err := j.LogCommit(id); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	open, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Fatalf("clean journal reports %v", open)
	}
}

func TestJournalMissingFile(t *testing.T) {
	open, err := Recover(filepath.Join(t.TempDir(), "absent.log"))
	if err != nil || open != nil {
		t.Fatalf("missing journal: %v %v", open, err)
	}
}

// appendRaw writes bytes straight to the journal file, as a crash or a
// damaged disk would leave them.
func appendRaw(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailIgnored: a crash mid-append leaves an unterminated
// final line. It was never acknowledged, so it is dropped — and cut off the
// file, or the next append would fuse with it into a damaged interior line.
func TestJournalTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, _ := OpenJournal(path)
	j.LogIntent("t1", []string{"d"})
	j.LogCommit("t1")
	j.LogIntent("t2", []string{"d"}, mkRec(0, 2))
	j.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record in the middle of its payload.
	if err := os.WriteFile(path, whole[:len(whole)-20], 0o644); err != nil {
		t.Fatal(err)
	}
	open, err := Recover(path)
	if err != nil || len(open) != 0 {
		t.Fatalf("torn tail: open = %+v, err = %v", open, err)
	}
	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.LogIntent("t3", []string{"d"}, mkRec(0, 3)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	open, err = Recover(path)
	if err != nil || len(open) != 1 || open[0].Txn != "t3" {
		t.Fatalf("after append over the cut tail: open = %+v, err = %v", open, err)
	}
}

// TestJournalDamagedInteriorFails: a record that does not parse or whose
// checksum does not match, anywhere but at the very end, is a lost commit —
// OpenJournal must say so instead of skipping it.
func TestJournalDamagedInteriorFails(t *testing.T) {
	for name, damage := range map[string]func(line string) string{
		"flipped payload byte": func(line string) string {
			b := []byte(line)
			b[len(b)-5] ^= 0x01
			return string(b)
		},
		"flipped index":  func(line string) string { return strings.Replace(line, " d 2 ", " d 3 ", 1) },
		"unknown record": func(string) string { return "X t0.2" },
		"blank line":     func(string) string { return "" },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "commit.log")
			j, _ := OpenJournal(path)
			rec := mkRec(0, 2)
			rec.Index = 2
			j.LogIntent("t0.2", []string{"d"}, rec)
			j.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			line := strings.TrimSuffix(string(data), "\n")
			// As the final line the damage reads as a torn append: forgiven.
			if err := os.WriteFile(path, []byte(damage(line)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if open, err := Recover(path); err != nil || len(open) != 0 {
				t.Fatalf("damaged final line: open = %+v, err = %v", open, err)
			}
			// With a record after it, it is damage.
			appendRaw(t, path, "D t0.9\n")
			if _, err := OpenJournal(path); err == nil {
				t.Fatal("OpenJournal accepted a damaged interior record")
			}
			if _, err := Recover(path); err == nil {
				t.Fatal("Recover accepted a damaged interior record")
			}
		})
	}
}

// TestJournalIntentCarriesOps: an intent is the redo record — its payload
// comes back from OpenRecords in index order, a checkpoint seals exactly the
// intents it leaves no uncovered document of (one C line for all of them),
// and all of it survives compaction and reopening.
func TestJournalIntentCarriesOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(seq, index int64) ReplRecord {
		r := mkRec(0, seq)
		r.Index = index
		return r
	}
	// t0.1 changed d1 and d2 in one line; t0.2 and t0.3 only d1.
	if err := j.LogIntent("t0.1", []string{"d1", "d2"}, rec(1, 1), rec(1, 1)); err != nil {
		t.Fatal(err)
	}
	j.LogIntent("t0.3", []string{"d1"}, rec(3, 3))
	j.LogIntent("t0.2", []string{"d1"}, rec(2, 2))
	if err := j.LogIntent("t0.4", []string{"d1", "d2"}, rec(4, 4)); err == nil {
		t.Fatal("one record for two documents accepted")
	}
	if n := countLines(t, path); n != 3 {
		t.Fatalf("%d journal lines for 3 commits", n)
	}
	check := func(j *Journal, doc string, want ...int64) {
		t.Helper()
		recs, err := j.OpenRecords(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, r := range recs {
			got = append(got, r.Index)
			if len(r.Ops) != 1 || r.Ops[0].Update.Value != "v" {
				t.Fatalf("record %d lost its operations: %+v", r.Index, r)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("OpenRecords(%s) = %v, want %v", doc, got, want)
		}
	}
	check(j, "d1", 1, 2, 3)
	check(j, "d2", 1)

	// A checkpoint of d1 at 2 covers t0.2 entirely and t0.1's d1 half.
	if err := j.LogCheckpoint("d1", 2); err != nil {
		t.Fatal(err)
	}
	check(j, "d1", 3)
	if open := j.OpenIntents(); len(open) != 2 || open[0].Txn != "t0.1" || fmt.Sprint(open[0].Docs) != "[d2]" {
		t.Fatalf("open after checkpoint = %+v", open)
	}
	j.mu.Lock()
	err = j.compactLocked()
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Reopening forgets which half of an open intent was covered; the saved
	// position makes the replay skip it, and the next checkpoint covers it
	// again.
	check(j2, "d1", 1, 3)
	check(j2, "d2", 1)
	before := countLines(t, path)
	j2.LogCheckpoint("d1", 3)
	j2.LogCheckpoint("d2", 1)
	if open := j2.OpenIntents(); len(open) != 0 {
		t.Fatalf("open after covering checkpoints = %+v", open)
	}
	if n := countLines(t, path) - before; n != 2 {
		t.Fatalf("two checkpoints sealing two intents wrote %d lines", n)
	}
}

func TestJournalValidation(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "j.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.LogIntent("", nil); err == nil {
		t.Error("empty txn accepted")
	}
	if err := j.LogIntent("t 1", nil); err == nil {
		t.Error("txn with space accepted")
	}
	if err := j.LogIntent("t1", []string{"bad doc"}); err == nil {
		t.Error("doc with space accepted")
	}
	if err := j.LogCommit("bad txn"); err == nil {
		t.Error("commit with space accepted")
	}
	j.Close()
	if err := j.LogCommit("t1"); err == nil {
		t.Error("write after close accepted")
	}
}

func TestJournalConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			for k := 0; k < 20; k++ {
				if err := j.LogIntent(id, []string{"d"}); err != nil {
					t.Error(err)
					return
				}
				if err := j.LogCommit(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	j.Close()
	open, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != 0 {
		t.Fatalf("open intents after clean concurrent run: %v", open)
	}
}

func TestJournalDecisionLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Coordinator decides commit, participant-side intent follows, the
	// covering checkpoint seals both.
	if err := j.LogDecision("t0.1"); err != nil {
		t.Fatal(err)
	}
	if !j.Decision("t0.1") {
		t.Fatal("decision not live after LogDecision")
	}
	if err := j.LogIntent("t0.1", []string{"d1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.LogCommit("t0.1"); err != nil {
		t.Fatal(err)
	}
	if j.Decision("t0.1") {
		t.Fatal("decision still live after commit record")
	}

	// A decision with no local persistence is sealed explicitly.
	j.LogDecision("t0.2")
	if err := j.SealDecision("t0.2"); err != nil {
		t.Fatal(err)
	}
	if j.Decision("t0.2") {
		t.Fatal("decision still live after SealDecision")
	}
	// Sealing with an open intent defers to the covering checkpoint's seal.
	j.LogDecision("t0.3")
	j.LogIntent("t0.3", []string{"d1"})
	if err := j.SealDecision("t0.3"); err != nil {
		t.Fatal(err)
	}
	if !j.Decision("t0.3") {
		t.Fatal("open-intent decision sealed early")
	}
	// An abort resolution voids the decision and closes the intent.
	if err := j.LogAbort("t0.3"); err != nil {
		t.Fatal(err)
	}
	if j.Decision("t0.3") || len(j.OpenIntents()) != 0 {
		t.Fatalf("abort did not void: decisions=%v open=%v", j.Decisions(), j.OpenIntents())
	}
	// A consolidation that lost to a local abort takes back only what it
	// journaled: a record of the same transaction shipped here for another
	// document stays replayable.
	j.LogIntent("t0.4", []string{"dShipped"}, mkRec(0, 4))
	j.LogIntent("t0.4", []string{"dLocal"}, mkRec(0, 4))
	if err := j.LogAbort("t0.4", "dLocal"); err != nil {
		t.Fatal(err)
	}
	if open := j.OpenIntents(); len(open) != 1 || fmt.Sprint(open[0].Docs) != "[dShipped]" {
		t.Fatalf("scoped abort left %+v", open)
	}
	j.LogCheckpoint("dShipped", 0)
	j.Close()

	// The offline view agrees.
	open, err := Recover(path)
	if err != nil || len(open) != 0 {
		t.Fatalf("recover: %v %v", open, err)
	}
}

func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.compactEvery = 10
	// Leave one intent open and one decision live; everything else seals.
	j.LogIntent("t0.1", []string{"dA", "dB"})
	j.LogDecision("t0.99")
	for i := 2; i < 60; i++ {
		id := "t0." + strconv.Itoa(i)
		j.LogIntent(id, []string{"d"})
		j.LogCommit(id)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 58 intent+commit pairs would be >115 lines uncompacted; the rotated
	// file holds only the checkpoint marker plus the live records.
	if lines := countLines(t, path); lines > 10 {
		t.Fatalf("journal not compacted: %d lines, %d bytes", lines, st.Size())
	}
	j.Close()

	// Reopen: live state survives the checkpoint.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	open := j2.OpenIntents()
	if len(open) != 1 || open[0].Txn != "t0.1" || len(open[0].Docs) != 2 {
		t.Fatalf("open after reopen = %+v", open)
	}
	if !j2.Decision("t0.99") {
		t.Fatal("decision lost across checkpoint")
	}
	// The checkpoint record fences the sequence space even though the
	// sealed records themselves are gone.
	if got := j2.MaxSeq(0); got != 99 {
		t.Fatalf("MaxSeq(0) = %d, want 99", got)
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}
