package store

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"fmt"

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
