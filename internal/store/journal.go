package store

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/txn"
)

// Journal is the site's one commit log — the durability/atomicity direction
// the paper defers to future work ("the authors intend to develop solutions
// for DTX to work with the properties of atomicity and durability", §5).
//
// A local commit appends ONE intent line, fsynced once, carrying the
// transaction's applied operations for every document it changed here: the
// intent is the redo record. Documents are not rewritten per commit; a
// checkpoint (internal/sched/persist.go) periodically saves a document's
// committed image together with the index of the newest record the image
// reflects, and then seals every intent the image covers. After a crash the
// open intents past the saved position are replayed onto the image, so an
// acknowledged commit needs nothing but this site's own checkpoint and log.
//
// A coordinator additionally logs a decision record BEFORE fanning the
// commit out to the participants. The decision record is what makes
// presumed abort sound: a participant that lost its coordinator asks, and
// the coordinator answers commit if (and only if) a decision record exists —
// no record means no participant can have consolidated, so abort is safe to
// presume.
//
// Record format, one per line:
//
//	I <txn> <crc> (<doc> <index> <payload>)...
//	                   intent: the redo record of one local commit — per
//	                   changed document the record's log index and its
//	                   encoded ReplRecord ("0 -" when the caller logs no
//	                   payload); crc is the CRC-32 of everything else on
//	                   the line
//	C <txn>...         seal: checkpoints cover every document of each intent
//	A <txn> [<doc>...] abort: the transaction was resolved as aborted
//	                   (closes the intent and voids any decision); with
//	                   documents, only the intent's entries for them
//	D <txn>            coordinator commit decision
//	K <site>:<seq>,... compaction marker carrying the max sequence number
//	                   seen per site, for restart identifier fencing
//
// The journal keeps its live state (open intents with their payloads, live
// decisions, max sequence numbers) in memory, rebuilt by OpenJournal from
// the file. Once enough records are sealed the file is compacted: a marker
// plus the still-live records are rewritten atomically (temp file + rename),
// so the journal does not grow without bound.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string

	// Live state, maintained across appends and rebuilt on open.
	open          map[string]*openIntent // txn -> intent not yet fully covered
	openOrder     []string               // intent order, for deterministic reports
	decisions     map[string]bool        // live coordinator commit decisions
	decisionOrder []string
	decisionHead  int           // decisionOrder index of the oldest possibly-live entry
	maxSeq        map[int]int64 // max sequence number seen per site

	// records counts appended lines since the last compaction; when it
	// passes compactEvery and at least half of them are sealed, the file is
	// compacted in place.
	records      int
	compactEvery int
}

// openIntent is the live state of one transaction's intent line(s). A
// follower journals each shipped record as it arrives, so one transaction
// that changed two documents can own two lines.
type openIntent struct {
	lines []string      // the I lines as written, copied verbatim by compaction
	docs  []intentEntry // the documents no checkpoint covers yet
}

// intentEntry is one document's share of an intent.
type intentEntry struct {
	doc     string
	index   int64  // the record's per-document log index; 0 without payload
	payload string // EncodeReplRecord output, or noPayload
}

const noPayload = "-"

// maxDecisions bounds the live decision set. Decisions for cleanly completed
// local transactions are dropped as their seal lands; the cap protects
// against a pathological run of decided transactions that never seal (each
// one would otherwise be carried across every compaction forever).
//
// Both discard rules approximate the textbook protocol, which retains a
// decision until every PARTICIPANT acknowledges its own durability: here the
// coordinator forgets on its own seal (or at the cap), so a participant that
// stays crashed past the retention window — beyond this site's tombstone
// ring AND its decision set — hears presumed abort for a transaction that
// committed. The window is generous (thousands of transactions), and the
// participant's documents still converge by catching up from a live
// replica; only the journal's outcome label for that corner is wrong. The
// honest fix is participant acks; until then this comment is the contract.
const maxDecisions = 8192

// defaultCompactEvery is the compaction threshold in appended records.
const defaultCompactEvery = 4096

func newJournal(path string) *Journal {
	return &Journal{
		path:         path,
		open:         make(map[string]*openIntent),
		decisions:    make(map[string]bool),
		maxSeq:       make(map[int]int64),
		compactEvery: defaultCompactEvery,
	}
}

// OpenJournal opens (creating if needed) a journal file for appending and
// rebuilds the live state — open intents, live decisions, per-site sequence
// fences — from its records. A torn final line (a crash mid-append) is cut
// off; a damaged record anywhere else is a lost commit, so opening fails.
func OpenJournal(path string) (*Journal, error) {
	j := newJournal(path)
	good, size, err := j.replay()
	if err != nil {
		return nil, err
	}
	if good < size {
		// Without the cut the next append would fuse with the fragment into
		// one damaged interior line.
		if err := os.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("store: journal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	j.f = f
	return j, nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

func validToken(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \n\r\t")
}

// replay rebuilds the live state from the journal file and returns how many
// leading bytes hold intact records, and the file size. A missing file means
// a fresh journal. The final line is forgiven when it is unterminated or
// does not parse — an append the crash interrupted, never acknowledged;
// anywhere else such a line is damage and an error.
func (j *Journal) replay() (good, size int64, err error) {
	data, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: journal: %w", err)
	}
	pos := 0
	for line := 1; pos < len(data); line++ {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break
		}
		end := pos + nl + 1
		if err := j.applyLine(string(data[pos : end-1])); err != nil {
			if end == len(data) {
				break
			}
			return 0, 0, fmt.Errorf("store: journal %s: line %d: %w", j.path, line, err)
		}
		j.records++
		pos = end
	}
	return int64(pos), int64(len(data)), nil
}

// applyLine folds one record into the live state, or reports why it is not a
// record.
func (j *Journal) applyLine(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("not a record: %.40q", line)
	}
	switch kind := fields[0]; {
	case kind == "I":
		docs, err := parseIntent(fields)
		if err != nil {
			return err
		}
		j.noteIntent(fields[1], line, docs)
	case kind == "C":
		for _, t := range fields[1:] {
			j.noteSealed(t)
		}
	case kind == "A":
		j.noteAborted(fields[1], fields[2:])
	case kind == "D" && len(fields) == 2:
		j.noteDecision(fields[1])
	case kind == "K" && len(fields) == 2:
		for _, part := range strings.Split(fields[1], ",") {
			site, seq, ok := strings.Cut(part, ":")
			s, err1 := strconv.Atoi(site)
			n, err2 := strconv.ParseInt(seq, 10, 64)
			if !ok || err1 != nil || err2 != nil {
				return fmt.Errorf("bad sequence fence %q", part)
			}
			if n > j.maxSeq[s] {
				j.maxSeq[s] = n
			}
		}
	default:
		return fmt.Errorf("not a record: %.40q", line)
	}
	return nil
}

// intentSum is the checksum an intent line carries over its transaction and
// its document entries.
func intentSum(t, entries string) string {
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(t+" "+entries)))
}

// parseIntent checks an intent line's shape and checksum and returns its
// document entries.
func parseIntent(fields []string) ([]intentEntry, error) {
	if len(fields) < 3 || len(fields)%3 != 0 {
		return nil, fmt.Errorf("intent %s: %d fields", fields[1], len(fields))
	}
	if intentSum(fields[1], strings.Join(fields[3:], " ")) != fields[2] {
		return nil, fmt.Errorf("intent %s: checksum mismatch", fields[1])
	}
	docs := make([]intentEntry, 0, len(fields)/3-1)
	for i := 3; i < len(fields); i += 3 {
		index, err := strconv.ParseInt(fields[i+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("intent %s: bad index %q", fields[1], fields[i+1])
		}
		docs = append(docs, intentEntry{doc: fields[i], index: index, payload: fields[i+2]})
	}
	return docs, nil
}

func (j *Journal) noteID(t string) {
	if id, err := txn.ParseID(t); err == nil && id.Seq > j.maxSeq[id.Site] {
		j.maxSeq[id.Site] = id.Seq
	}
}

func (j *Journal) noteIntent(t, line string, docs []intentEntry) {
	in := j.open[t]
	if in == nil {
		// t is a slice of the line; openOrder outlives the intent, and must
		// not keep the whole line (payload included) alive with it.
		t = strings.Clone(t)
		in = &openIntent{}
		j.open[t] = in
		j.openOrder = append(j.openOrder, t)
	}
	in.lines = append(in.lines, line)
	in.docs = append(in.docs, docs...)
	j.noteID(t)
}

// noteSealed closes an intent and voids any decision for the transaction: a
// seal means checkpoints cover it (the decision is no longer needed to
// answer for a cleanly completed transaction), an abort record means the
// transaction was resolved as aborted.
func (j *Journal) noteSealed(t string) {
	delete(j.open, t)
	delete(j.decisions, t)
	j.noteID(t)
}

// noteAborted folds an abort record: without documents the transaction is
// closed whole; with them only those entries of its intent are dropped, and
// the transaction is closed once none is left.
func (j *Journal) noteAborted(t string, docs []string) {
	if in := j.open[t]; in != nil && len(docs) > 0 {
		in.docs = slices.DeleteFunc(in.docs, func(e intentEntry) bool { return slices.Contains(docs, e.doc) })
		if len(in.docs) > 0 {
			return
		}
	}
	j.noteSealed(t)
}

func (j *Journal) noteDecision(t string) {
	if !j.decisions[t] {
		j.decisionOrder = append(j.decisionOrder, t)
		j.decisions[t] = true
	}
	j.noteID(t)
	// Cap the live decision set (see maxDecisions): walk forward from the
	// oldest entry, skipping ones already sealed, until the cap holds.
	for len(j.decisions) > maxDecisions && j.decisionHead < len(j.decisionOrder) {
		delete(j.decisions, j.decisionOrder[j.decisionHead])
		j.decisionHead++
	}
}

// LogIntent appends the redo record of one local commit: the documents the
// transaction changed here and, with recs given (one per document, in the
// same order), what it applied to each. Without recs the intent only names
// the documents. The whole commit is one line, flushed to stable storage
// before returning, so a torn tail cannot split a multi-document commit.
func (j *Journal) LogIntent(t string, docs []string, recs ...ReplRecord) error {
	if !validToken(t) {
		return fmt.Errorf("store: journal: invalid txn id %q", t)
	}
	if len(recs) > 0 && len(recs) != len(docs) {
		return fmt.Errorf("store: journal: %d records for %d documents", len(recs), len(docs))
	}
	var b strings.Builder
	for i, d := range docs {
		if !validToken(d) {
			return fmt.Errorf("store: journal: invalid document name %q", d)
		}
		index, payload := int64(0), noPayload
		if len(recs) > 0 {
			var err error
			if payload, err = EncodeReplRecord(recs[i]); err != nil {
				return err
			}
			index = recs[i].Index
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s %d %s", d, index, payload)
	}
	line := "I " + t + " " + intentSum(t, b.String())
	if b.Len() > 0 {
		line += " " + b.String()
	}
	return j.append(line)
}

// LogCommit seals the intents of the given transactions: whatever they
// changed is in the saved documents.
func (j *Journal) LogCommit(t string, more ...string) error {
	ids := append([]string{t}, more...)
	for _, id := range ids {
		if !validToken(id) {
			return fmt.Errorf("store: journal: invalid txn id %q", id)
		}
	}
	return j.append("C " + strings.Join(ids, " "))
}

// LogCheckpoint records that the saved image of doc reflects every record of
// the document up to index: the intents it was the last uncovered document
// of are sealed, all with one line.
func (j *Journal) LogCheckpoint(doc string, index int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var sealed []string
	for t, in := range j.open {
		in.docs = slices.DeleteFunc(in.docs, func(e intentEntry) bool { return e.doc == doc && e.index <= index })
		if len(in.docs) == 0 {
			sealed = append(sealed, t)
		}
	}
	if len(sealed) == 0 {
		return nil
	}
	return j.appendLocked("C " + strings.Join(sealed, " "))
}

// OpenRecords returns the records the open intents carry for doc, in index
// order — what a restart replays onto the document's saved image.
func (j *Journal) OpenRecords(doc string) ([]ReplRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []ReplRecord
	for t, in := range j.open {
		for _, e := range in.docs {
			if e.doc != doc || e.payload == noPayload {
				continue
			}
			rec, err := DecodeReplRecord(e.payload)
			if err != nil {
				return nil, fmt.Errorf("store: journal: intent %s: %w", t, err)
			}
			if rec.Index != e.index {
				return nil, fmt.Errorf("store: journal: intent %s: %s record %d filed under index %d", t, doc, rec.Index, e.index)
			}
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out, nil
}

// LogAbort records that the transaction was resolved as aborted, voiding its
// decision and closing its intent — or, with docs given, only the intent's
// entries for those documents: a consolidation that lost to a concurrent
// local abort takes back exactly what it journaled, not a record of the
// same transaction a primary shipped here for another document.
func (j *Journal) LogAbort(t string, docs ...string) error {
	toks := append([]string{t}, docs...)
	for _, tok := range toks {
		if !validToken(tok) {
			return fmt.Errorf("store: journal: invalid token %q in abort record", tok)
		}
	}
	return j.append("A " + strings.Join(toks, " "))
}

// LogDecision records the coordinator's commit decision for the transaction.
// It must be flushed BEFORE any commit message leaves the coordinator: the
// presumed-abort rule ("no decision record means abort") is only sound if no
// participant can consolidate ahead of the record.
func (j *Journal) LogDecision(t string) error {
	if !validToken(t) {
		return fmt.Errorf("store: journal: invalid txn id %q", t)
	}
	return j.append("D " + t)
}

// SealDecision closes a live decision whose transaction changed nothing at
// the coordinator's own site (so no checkpoint will ever seal it). With an
// intent still open the seal is left to the checkpoint that covers it —
// sealing early would drop a redo record no saved image reflects yet.
func (j *Journal) SealDecision(t string) error { return j.closeDecision(t, "C") }

// VoidDecision writes an abort record for the transaction if (and only if)
// a live decision exists for it — the coordinator's clean-abort path after a
// participant refused the commit fan-out, where the decided-but-undelivered
// commit must not survive as a live decision a recovering participant could
// later read.
func (j *Journal) VoidDecision(t string) error { return j.closeDecision(t, "A") }

// closeDecision writes rec for a still-live decision, checked and appended
// under one critical section: a no-op if the decision was already sealed,
// and deferred if an intent appeared since the caller's snapshot — the
// transaction is consolidating after all, and this record would close its
// redo record; the checkpointer owns the sealing then.
func (j *Journal) closeDecision(t, rec string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.decisions[t] {
		return nil
	}
	if _, open := j.open[t]; open {
		return nil
	}
	return j.appendLocked(rec + " " + t)
}

// Decision reports whether a live commit-decision record exists for the
// transaction.
func (j *Journal) Decision(t string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.decisions[t]
}

// Decisions returns the transactions with a live commit decision, in
// decision order — the set a restarted coordinator must reconcile (a live
// decision whose transaction never sealed may have reached some, none, or
// all of its participants).
func (j *Journal) Decisions() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.decisions))
	for _, t := range j.decisionOrder {
		if j.decisions[t] {
			out = append(out, t)
		}
	}
	return out
}

// OpenIntents returns the intents no checkpoint has fully covered yet — the
// commits a restart replays — in intent order.
func (j *Journal) OpenIntents() []OpenIntent {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []OpenIntent
	for _, t := range j.openOrder {
		if in, ok := j.open[t]; ok {
			docs := make([]string, len(in.docs))
			for i, e := range in.docs {
				docs[i] = e.doc
			}
			out = append(out, OpenIntent{Txn: t, Docs: docs})
		}
	}
	return out
}

// MaxSeq returns the highest transaction sequence number the journal has
// seen for the site, across compactions. A restarted site fences its
// identifier space past this so new transactions cannot collide with
// journaled ones from the previous incarnation.
func (j *Journal) MaxSeq(site int) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxSeq[site]
}

func (j *Journal) append(line string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(line)
}

// appendLocked writes and fsyncs one record. Callers hold j.mu.
func (j *Journal) appendLocked(line string) error {
	if j.f == nil {
		return fmt.Errorf("store: journal is closed")
	}
	if _, err := j.f.WriteString(line + "\n"); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: journal: %w", err)
	}
	if err := j.applyLine(line); err != nil {
		return fmt.Errorf("store: journal: wrote a line it cannot read back: %w", err)
	}
	j.records++
	// Compact once the threshold is reached AND at least half the file is
	// droppable (sealed records); without the second condition a journal
	// whose live state alone exceeds the threshold would rewrite itself on
	// every append. The factor keeps compaction amortised O(1) per record.
	if live := 1 + len(j.open) + len(j.decisions); j.records >= j.compactEvery && j.records >= 2*live {
		// Best effort: a failed compaction leaves the (valid, longer) file
		// in place and the next append retries.
		_ = j.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal to its live state: the sequence fence,
// the open intents as written, the live decisions. Callers hold j.mu.
func (j *Journal) compactLocked() error {
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".journal-*")
	if err != nil {
		return fmt.Errorf("store: journal: compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	lines := 1
	fmt.Fprintf(w, "K %s\n", j.seqFenceLocked())
	for _, t := range j.openOrder {
		if in, ok := j.open[t]; ok {
			for _, line := range in.lines {
				fmt.Fprintln(w, line)
				lines++
			}
		}
	}
	for _, t := range j.decisionOrder {
		if j.decisions[t] {
			fmt.Fprintln(w, "D "+t)
			lines++
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: journal: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: journal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: journal: compact: %w", err)
	}
	// Open the replacement append handle on the temp file BEFORE the
	// rename: the handle follows the inode, so after the rename it is the
	// journal — and any failure up to that point aborts the compaction with
	// the old (longer but valid) file and handle fully intact. Opening
	// after the rename instead would leave a failure window where j.f
	// points at the unlinked old inode and every later append is silently
	// invisible to recovery.
	f, err := os.OpenFile(tmp.Name(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: journal: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		f.Close()
		return fmt.Errorf("store: journal: compact: %w", err)
	}
	j.f.Close()
	j.f = f
	// Compact the order slices alongside the file.
	j.openOrder = liveOrder(j.openOrder, func(t string) bool { _, ok := j.open[t]; return ok })
	j.decisionOrder = liveOrder(j.decisionOrder, func(t string) bool { return j.decisions[t] })
	j.decisionHead = 0
	j.records = lines
	return nil
}

func liveOrder(order []string, live func(string) bool) []string {
	out := order[:0]
	for _, t := range order {
		if live(t) {
			out = append(out, t)
		}
	}
	return out
}

// seqFenceLocked renders the per-site max sequence numbers for the
// compaction marker. Callers hold j.mu.
func (j *Journal) seqFenceLocked() string {
	sites := make([]int, 0, len(j.maxSeq))
	for s := range j.maxSeq {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	var b strings.Builder
	for i, s := range sites {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%d", s, j.maxSeq[s])
	}
	if b.Len() == 0 {
		return "0:0"
	}
	return b.String()
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// OpenIntent describes a commit found in the journal with an intent record
// that no checkpoint covers yet: a restart replays it.
type OpenIntent struct {
	Txn  string
	Docs []string
}

// Recover scans a journal file and returns its open intents, in intent
// order. A missing journal file means nothing to recover. Recover is the
// offline view; a live Journal answers the same question from memory with
// OpenIntents.
func Recover(path string) ([]OpenIntent, error) {
	j := newJournal(path)
	if _, _, err := j.replay(); err != nil {
		return nil, err
	}
	return j.OpenIntents(), nil
}
