package store

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/txn"
	"repro/internal/xmltree"
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

// TestJournalRefusesGobEraRecord: an intent whose payload is a gob stream,
// the record format journals used before the binary one, is refused on
// replay with an error naming that format, not read as some other record.
func TestJournalRefusesGobEraRecord(t *testing.T) {
	rec := mkRec(0, 1)
	rec.Index = 1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	payload := base64.StdEncoding.EncodeToString(buf.Bytes())
	entries := "d1 1 " + payload
	path := filepath.Join(t.TempDir(), "commit.log")
	if err := os.WriteFile(path, []byte("I t0.1 "+intentSum("t0.1", entries)+" "+entries+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.OpenRecords("d1"); !errors.Is(err, errGobEra) || !strings.Contains(err.Error(), "gob-era") {
		t.Fatalf("replaying a gob record: err = %v", err)
	}
}

// FuzzReplRecordDecode decodes arbitrary bytes as a journal payload. It must
// not panic, nor allocate more than a small multiple of the input; a record
// that decodes must survive encode → decode unchanged.
func FuzzReplRecordDecode(f *testing.F) {
	ins := mkRec(3, 9)
	ins.Ops = append(ins.Ops, txn.NewQuery("d1", "//a"), txn.NewUpdate("d1", &xupdate.Update{
		Kind: xupdate.Insert, Target: "/a", Pos: xmltree.Before,
		New: &xupdate.NodeSpec{Name: "b", Attrs: []xmltree.Attr{{Name: "k", Value: "v"}},
			Children: []*xupdate.NodeSpec{{Name: "c", Text: "t"}}},
	}))
	for _, rec := range []ReplRecord{mkRec(0, 1), ins, {}} {
		payload, err := EncodeReplRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		raw, _ := base64.StdEncoding.DecodeString(payload)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := base64.StdEncoding.EncodeToString(data)
		var rec ReplRecord
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err = DecodeReplRecord(payload)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 32*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		payload, err = EncodeReplRecord(rec)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		again, err := DecodeReplRecord(payload)
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("encode → decode changed\n%#v\ninto\n%#v (err %v)", rec, again, err)
		}
	})
}
