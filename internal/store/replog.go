package store

import (
	"encoding/base64"
	"fmt"

	"repro/internal/txn"
	"repro/internal/wire"
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

// Code codes the record's fields with c, in either direction.
func (r *ReplRecord) Code(c *wire.Coder) {
	c.Int64(&r.Index)
	c.ID(&r.Txn)
	c.TS(&r.TS)
	c.Ops(&r.Ops)
}

// recordFormat is the first byte of an encoded record: the wire codec's
// layout. Records written before it were gob streams, whose first byte is a
// message length and never this value.
const recordFormat byte = 0xB1

// EncodeReplRecord renders a record as a single whitespace-free token, the
// shape the journal's line grammar requires of payloads: base64 of the
// format byte followed by the binary record.
func EncodeReplRecord(rec ReplRecord) (string, error) {
	c := wire.NewEncoder(make([]byte, 1, 256))
	c.Bytes()[0] = recordFormat
	rec.Code(&c)
	if err := c.Err(); err != nil {
		return "", fmt.Errorf("store: encode repl record: %w", err)
	}
	return base64.StdEncoding.EncodeToString(c.Bytes()), nil
}

// errGobEra refuses a payload not in the binary format: journals written
// before it held gob streams, which replay cannot read.
var errGobEra = fmt.Errorf("not a binary record (format byte %#x): a gob-era journal record cannot be replayed", recordFormat)

// DecodeReplRecord is the inverse of EncodeReplRecord.
func DecodeReplRecord(payload string) (ReplRecord, error) {
	var rec ReplRecord
	raw, err := base64.StdEncoding.DecodeString(payload)
	if err == nil && (len(raw) == 0 || raw[0] != recordFormat) {
		err = errGobEra
	}
	if err == nil {
		c := wire.NewDecoder(raw[1:])
		rec.Code(&c)
		err = c.Err()
	}
	if err != nil {
		return ReplRecord{}, fmt.Errorf("store: decode repl record: %w", err)
	}
	return rec, nil
}
