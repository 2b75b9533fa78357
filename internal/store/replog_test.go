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
