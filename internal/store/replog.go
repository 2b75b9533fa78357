package store

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"fmt"
	"sync"

	"repro/internal/txn"
)

// ReplRecord is one commit's effect on one document: the ordered update
// operations the transaction applied, stamped with the per-document log
// index (contiguous, starting at 1) and the commit timestamp. It is the
// payload of a journal intent and the unit quorum replication ships.
// Records apply strictly in index order, so the pair (doc, index) is the
// whole notion of position — of a follower, and of a saved image.
type ReplRecord struct {
	Index int64
	Txn   txn.ID
	TS    txn.TS
	Ops   []txn.Operation
}

// ReplLog is the in-memory shipping window of one quorum-mode site: a bounded
// per-document span of recent records. Records older than the horizon are
// discarded; a follower asking for records past the horizon must fall back
// to whole-document transfer. A restart refills it with the records it
// replays from the journal's open intents, so a primary crash narrows — but
// does not poison — the incremental catch-up window.
type ReplLog struct {
	mu      sync.Mutex
	horizon int
	docs    map[string]*docLog
}

type docLog struct {
	floor int64 // index of recs[0]; floor+len(recs)-1 is the head
	recs  []ReplRecord
}

// NewReplLog creates a log retaining up to horizon records per document.
func NewReplLog(horizon int) *ReplLog {
	if horizon <= 0 {
		horizon = 512
	}
	return &ReplLog{horizon: horizon, docs: make(map[string]*docLog)}
}

// Append adds a record that already carries its index. Records must arrive
// in index order; a gap restarts the window at the newer record (the
// retained span must stay contiguous or followers would apply holes).
func (l *ReplLog) Append(doc string, rec ReplRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.docs[doc]
	if d == nil {
		d = &docLog{}
		l.docs[doc] = d
	}
	if rec.Index != d.floor+int64(len(d.recs)) {
		d.floor = rec.Index
		d.recs = d.recs[:0]
	}
	d.recs = append(d.recs, rec)
	if len(d.recs) > l.horizon {
		drop := len(d.recs) - l.horizon
		d.recs = append([]ReplRecord(nil), d.recs[drop:]...)
		d.floor += int64(drop)
	}
}

// Reset discards every retained record for doc and restarts the window
// empty, just past head: Head reports head, and only spans starting at or
// after it are servable. Used after a whole-document transfer established a
// replica at a known position with no record history behind it.
func (l *ReplLog) Reset(doc string, head int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.docs[doc] = &docLog{floor: head + 1}
}

// Head returns the index of the newest record for doc (0 if none).
func (l *ReplLog) Head(doc string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.docs[doc]
	if d == nil {
		return 0
	}
	return d.floor + int64(len(d.recs)) - 1
}

// Since returns all retained records for doc with Index > after, in order.
// ok is false when the span is not fully retained — `after` has fallen past
// the compaction horizon — in which case the caller must fall back to a
// whole-document transfer.
func (l *ReplLog) Since(doc string, after int64) (recs []ReplRecord, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.docs[doc]
	if d == nil {
		return nil, after == 0
	}
	if after+1 < d.floor {
		return nil, false
	}
	start := int(after + 1 - d.floor)
	if start >= len(d.recs) {
		return nil, true
	}
	return append([]ReplRecord(nil), d.recs[start:]...), true
}

// EncodeReplRecord renders a record as a single whitespace-free token
// (base64 of the gob encoding), the shape the journal's line grammar
// requires of payloads.
func EncodeReplRecord(rec ReplRecord) (string, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return "", fmt.Errorf("store: encode repl record: %w", err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// DecodeReplRecord is the inverse of EncodeReplRecord.
func DecodeReplRecord(payload string) (ReplRecord, error) {
	raw, err := base64.StdEncoding.DecodeString(payload)
	if err != nil {
		return ReplRecord{}, fmt.Errorf("store: decode repl record: %w", err)
	}
	var rec ReplRecord
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&rec); err != nil {
		return ReplRecord{}, fmt.Errorf("store: decode repl record: %w", err)
	}
	return rec, nil
}
