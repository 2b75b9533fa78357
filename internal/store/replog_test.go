package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/txn"
	"repro/internal/xupdate"
)

func mkRec(site int, seq int64) ReplRecord {
	return ReplRecord{
		Txn: txn.ID{Site: site, Seq: seq},
		TS:  txn.TS(seq),
		Ops: []txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Change, Target: "/a/b", Value: "v",
		})},
	}
}

func TestReplLogAppendSince(t *testing.T) {
	l := NewReplLog(4)
	for i := int64(1); i <= 6; i++ {
		rec := mkRec(0, i)
		rec.Index = i
		l.Append("d1", rec)
	}
	if h := l.Head("d1"); h != 6 {
		t.Fatalf("Head = %d, want 6", h)
	}
	// Horizon 4: indices 3..6 retained; asking after=2 is the oldest servable.
	recs, ok := l.Since("d1", 2)
	if !ok || len(recs) != 4 || recs[0].Index != 3 || recs[3].Index != 6 {
		t.Fatalf("Since(2) = %v records, ok=%v", len(recs), ok)
	}
	// after=1 needs index 2, which was compacted away.
	if _, ok := l.Since("d1", 1); ok {
		t.Fatal("Since(1) should report past-horizon")
	}
	// Fully caught up.
	recs, ok = l.Since("d1", 6)
	if !ok || len(recs) != 0 {
		t.Fatalf("Since(6) = %d records, ok=%v", len(recs), ok)
	}
	// Unknown doc: only after=0 is servable (empty history).
	if _, ok := l.Since("nope", 0); !ok {
		t.Fatal("Since on unknown doc at 0 should be ok (nothing to send)")
	}
	if _, ok := l.Since("nope", 3); ok {
		t.Fatal("Since on unknown doc past 0 should report past-horizon")
	}
}

func TestReplLogAppendContiguity(t *testing.T) {
	l := NewReplLog(8)
	r5 := mkRec(0, 5)
	r5.Index = 5
	r6 := mkRec(0, 6)
	r6.Index = 6
	r9 := mkRec(0, 9)
	r9.Index = 9
	l.Append("d1", r5)
	l.Append("d1", r6)
	l.Append("d1", r9) // gap: window must reset to [9,9]
	if h := l.Head("d1"); h != 9 {
		t.Fatalf("Head = %d, want 9", h)
	}
	if _, ok := l.Since("d1", 5); ok {
		t.Fatal("span across the gap must report past-horizon")
	}
	recs, ok := l.Since("d1", 8)
	if !ok || len(recs) != 1 || recs[0].Index != 9 {
		t.Fatalf("Since(8) = %v, ok=%v", recs, ok)
	}
	// A window restarted empty at a known head continues from it.
	l.Reset("d1", 20)
	if h := l.Head("d1"); h != 20 {
		t.Fatalf("Head after Reset = %d, want 20", h)
	}
	r21 := mkRec(0, 21)
	r21.Index = 21
	l.Append("d1", r21)
	if recs, ok := l.Since("d1", 20); !ok || len(recs) != 1 || recs[0].Index != 21 {
		t.Fatalf("Since(20) after Reset+Append = %v, ok=%v", recs, ok)
	}
}

func TestReplRecordRoundTrip(t *testing.T) {
	rec := mkRec(2, 7)
	rec.Index = 41
	payload, err := EncodeReplRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !validToken(payload) {
		t.Fatalf("payload %q is not a single journal token", payload)
	}
	got, err := DecodeReplRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != 41 || got.Txn != rec.Txn || got.TS != rec.TS || len(got.Ops) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	op := got.Ops[0]
	if op.Kind != txn.OpUpdate || op.Doc != "d1" || op.Update == nil || op.Update.Value != "v" {
		t.Fatalf("op mismatch: %+v", op)
	}
	if _, err := DecodeReplRecord("not!base64?"); err == nil {
		t.Fatal("decoding garbage should fail")
	}
}

// FuzzJournalReplay feeds arbitrary bytes through the journal replay path:
// whatever the file contains — torn lines, hostile records, binary noise —
// opening it must not panic, and the live-state queries must stay callable.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte("I t0.1 d1 d2\nD t0.1\nC t0.1\n"))
	f.Add([]byte("K 0:5,1:9\nI t1.3 d7"))
	f.Add([]byte("O d1\nO d1 notanint z\nI\n\x00\xff\n"))
	// Intents as the journal writes them: without payload, with one
	// document's operations, with two documents' in one line, then sealed.
	dir := f.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "seed.log"))
	if err != nil {
		f.Fatal(err)
	}
	r1, r2 := mkRec(0, 1), mkRec(0, 2)
	r1.Index, r2.Index = 1, 2
	j.LogIntent("t0.1", []string{"d1"})
	j.LogIntent("t0.2", []string{"d1"}, r1)
	j.LogIntent("t0.3", []string{"d1", "d2"}, r2, r1)
	j.LogDecision("t0.3")
	j.LogCheckpoint("d1", 1)
	j.LogCommit("t0.1", "t0.3")
	j.Close()
	seed, err := os.ReadFile(j.Path())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "commit.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			return // damaged is fine; panics are not
		}
		defer j.Close()
		_ = j.OpenIntents()
		_ = j.Decisions()
		_ = j.MaxSeq(0)
		_, _ = j.OpenRecords("d1")
		if _, err := replayOpen(path); err != nil {
			t.Fatalf("Recover after OpenJournal succeeded: %v", err)
		}
		// Whatever survived must be appendable and reopenable: a torn tail
		// was cut, not left to fuse with the next record.
		if err := j.LogDecision("t9.9"); err != nil {
			t.Fatal(err)
		}
		if _, err := replayOpen(path); err != nil {
			t.Fatalf("Recover after append: %v", err)
		}
	})
}
