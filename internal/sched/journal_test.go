package sched

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestCommitJournaling: a committed update produces one intent carrying its
// operations — open until a checkpoint covers it — an aborted or read-only
// transaction produces nothing, and after Sync the Store holds the committed
// document and the journal no open intent.
func TestCommitJournaling(t *testing.T) {
	dir := t.TempDir()
	journal, err := store.OpenJournal(filepath.Join(dir, "commit.log"))
	if err != nil {
		t.Fatal(err)
	}
	sites, _ := newCluster(t, 1, func(c *Config) { c.Journal = journal })
	s := sites[0]
	addDoc(t, s, "d2", productsXML)

	res, err := s.Submit([]txn.Operation{
		txn.NewUpdate("d2", &xupdate.Update{Kind: xupdate.Insert, Target: "/products",
			Pos: xmltree.Into, New: productSpec("13", "Mouse", "10.30")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != txn.Committed {
		t.Fatalf("state = %v", res.State)
	}

	// A failed transaction (missing doc) must not journal anything.
	if _, err := s.Submit([]txn.Operation{txn.NewQuery("ghost", "/x")}); err != nil {
		t.Fatal(err)
	}
	// A read-only transaction persists nothing, so no journal records.
	if _, err := s.Submit([]txn.Operation{txn.NewQuery("d2", "//product")}); err != nil {
		t.Fatal(err)
	}
	open := journal.OpenIntents()
	if len(open) != 1 || open[0].Txn != res.Txn.String() || len(open[0].Docs) != 1 || open[0].Docs[0] != "d2" {
		t.Fatalf("open intents after one commit = %+v", open)
	}
	if recs, err := journal.OpenRecords("d2"); err != nil || len(recs) != 1 || len(recs[0].Ops) != 1 {
		t.Fatalf("intent carries %+v (err %v), want the one applied insert", recs, err)
	}
	// A snapshot reader materialises the committed version first; the
	// checkpoint must save that very version, at the position it reflects.
	if ro, err := s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d2", "//product/id")}); err != nil || len(ro.Results[0]) != 3 {
		t.Fatalf("snapshot read: %v %+v", err, ro)
	}
	s.Sync()
	journal.Close()

	reopened, err := store.OpenJournal(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	open = reopened.OpenIntents()
	reopened.Close()
	if len(open) != 0 {
		t.Fatalf("open intents after Sync: %+v", open)
	}
	saved, _, err := s.cfg.Store.Load("d2")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := s.Document("d2")
	if saved.String() != live.String() {
		t.Fatalf("Store after Sync differs from the committed tree:\n%s\nvs\n%s", saved, live)
	}
}

// TestRecoveryDetectsOpenIntent simulates a crash between the intent record
// and the checkpoint that would have covered it: recovery reports the
// intent.
func TestRecoveryDetectsOpenIntent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "commit.log")
	journal, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Write the intent by hand, as if the site crashed before a checkpoint.
	if err := journal.LogIntent("t0.7", []string{"d2"}); err != nil {
		t.Fatal(err)
	}
	journal.Close()

	reopened, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	open := reopened.OpenIntents()
	reopened.Close()
	if len(open) != 1 || open[0].Txn != "t0.7" || open[0].Docs[0] != "d2" {
		t.Fatalf("open = %+v", open)
	}

	// A restarted site over the same store can reload its documents and
	// resume service.
	st := store.NewMemStore()
	doc, _ := xmltree.ParseString("d2", productsXML)
	if err := st.SaveAt(doc, 0); err != nil {
		t.Fatal(err)
	}
	sites, _ := newCluster(t, 1, func(c *Config) { c.Store = st })
	if _, err := sites[0].LoadDocument("d2"); err != nil {
		t.Fatal(err)
	}
	res, err := sites[0].Submit([]txn.Operation{txn.NewQuery("d2", "//product")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("restarted site not serving: %v %v", err, res)
	}
}

// TestBootstrap: a restarted site recovers every stored document and
// replays the journal's open intents onto them.
func TestBootstrap(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d2"} {
		doc, _ := xmltree.ParseString(name, peopleXML)
		if err := st.Save(doc); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := store.OpenJournal(filepath.Join(dir, "commit.log"))
	if err != nil {
		t.Fatal(err)
	}
	rec := store.ReplRecord{Index: 1, Txn: txn.ID{Site: 0, Seq: 3}, TS: 3, Ops: []txn.Operation{
		txn.NewUpdate("d1", &xupdate.Update{Kind: xupdate.Change, Target: "//person[id='4']/name", Value: "Replayed"}),
	}}
	if err := journal.LogIntent("t0.3", []string{"d1"}, rec); err != nil {
		t.Fatal(err)
	}
	journal.Close()
	journal2, err := store.OpenJournal(filepath.Join(dir, "commit.log"))
	if err != nil {
		t.Fatal(err)
	}
	sites, _ := newCluster(t, 1, func(c *Config) {
		c.Store = st
		c.Journal = journal2
	})
	replayed, err := sites[0].Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d records, want 1", replayed)
	}
	if res, err := sites[0].Submit([]txn.Operation{txn.NewQuery("d1", "//person[id='4']/name")}); err != nil ||
		len(res.Results[0]) != 1 || res.Results[0][0] != "Replayed" {
		t.Fatalf("replayed change not visible: %v %+v", err, res)
	}
	if got := len(sites[0].Documents()); got != 2 {
		t.Fatalf("recovered %d documents", got)
	}
	res, err := sites[0].Submit([]txn.Operation{txn.NewQuery("d2", "//person")})
	if err != nil || res.State != txn.Committed {
		t.Fatalf("recovered site not serving: %v %+v", err, res)
	}
}

// TestCheckpointProgressUnderOverlappingWriters: on a document smaller than
// checkpointEvery records of journal, a checkpoint lags by at most
// checkpointEvery records whatever writers are in flight. Two writers on one
// document hand over so that it always carries an uncommitted change; the
// checkpoint lag must stay bounded all the same, and no saved image may hold
// a change that was uncommitted when it was cut.
func TestCheckpointProgressUnderOverlappingWriters(t *testing.T) {
	// Predicate-disjoint writers on one document need xdgl's guarded locks.
	sites, _ := newClusterWithProtocol(t, 1, "xdgl", withJournal(t))
	s := sites[0]
	addDoc(t, s, "d1", peopleXML)

	begin := func(i int) (*Session, string) {
		t.Helper()
		sess, err := s.Begin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		person, val := []string{"4", "7"}[i%2], fmt.Sprintf("v%d", i)
		if _, err := sess.Exec(txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Change, Target: "//person[id='" + person + "']/name", Value: val,
		})); err != nil {
			t.Fatal(err)
		}
		return sess, ">" + val + "<"
	}
	lagOf := func() int {
		t.Helper()
		const series = `dtx_checkpoint_lag_records{site="0",doc="d1"} `
		_, rest, ok := strings.Cut(s.MetricsText(), series)
		if !ok {
			t.Fatalf("no %s in the exposition", series)
		}
		line, _, _ := strings.Cut(rest, "\n")
		lag, err := strconv.Atoi(line)
		if err != nil {
			t.Fatal(err)
		}
		return lag
	}

	const commits = 4 * checkpointEvery
	open, openVal := begin(0)
	for i := 1; i <= commits; i++ {
		next, nextVal := begin(i) // the document is dirty before and after every commit
		if err := open.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		open, openVal = next, nextVal
		s.Quiesce() // let a checkpoint this commit made due finish
		if lag := lagOf(); lag > 2*checkpointEvery {
			t.Fatalf("after %d commits the checkpoint lags %d records, want <= %d", i, lag, 2*checkpointEvery)
		}
		if i%checkpointEvery == 0 {
			saved, _, err := s.cfg.Store.Load("d1")
			if err != nil {
				t.Fatal(err)
			}
			xml := saved.String()
			if strings.Contains(xml, openVal) {
				t.Fatalf("after %d commits the Store holds the uncommitted %s:\n%s", i, openVal, xml)
			}
			if want := fmt.Sprintf(">v%d<", i-1); !strings.Contains(xml, want) {
				t.Fatalf("after %d commits the Store lacks the committed %s:\n%s", i, want, xml)
			}
		}
	}
	if err := open.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBoundsReplay: what a restart would replay stays within one
// image's worth of journal payload plus one record, or checkpointEvery
// records, whichever is larger — while a large document carries far more than
// checkpointEvery records between checkpoints — and replaying it after a
// crash restores the tree byte for byte.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "commit.log")
	journal, err := store.OpenJournal(logPath)
	if err != nil {
		t.Fatal(err)
	}
	sites, _ := newCluster(t, 1, func(c *Config) { c.Store = st; c.Journal = journal })
	s := sites[0]
	if err := s.AddDocument(xmark.Gen(xmark.Config{Name: "x", TargetBytes: 256 << 10, Seed: 1})); err != nil {
		t.Fatal(err)
	}

	// A kilobyte per change makes the journal outgrow the image within the run.
	pad := strings.Repeat("z", 1<<10)
	var largest, mostOpen, checkpoints, prevOpen int
	for i := 1; i <= 300; i++ {
		res, err := s.Submit([]txn.Operation{txn.NewUpdate("x", &xupdate.Update{Kind: xupdate.Change,
			Target: "/site/open_auctions/open_auction[1]/current", Value: fmt.Sprint(i, pad)})})
		if err != nil || res.State != txn.Committed {
			t.Fatalf("commit %d: %v / %+v", i, err, res)
		}
		s.Quiesce() // let a checkpoint this commit made due finish

		recs, err := journal.OpenRecords("x")
		if err != nil {
			t.Fatal(err)
		}
		open := 0
		for _, rec := range recs {
			payload, err := store.EncodeReplRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			open += len(payload)
			largest = max(largest, len(payload))
		}
		image, err := os.Stat(filepath.Join(dir, "x.xml"))
		if err != nil {
			t.Fatal(err)
		}
		if bound := max(int(image.Size())+largest, checkpointEvery*largest); open > bound {
			t.Fatalf("after %d commits %d records (%d payload bytes) are open; the image is %d bytes, bound %d",
				i, len(recs), open, image.Size(), bound)
		}
		if len(recs) < prevOpen {
			checkpoints++
		}
		prevOpen, mostOpen = len(recs), max(mostOpen, len(recs))
	}
	if mostOpen <= checkpointEvery || checkpoints == 0 {
		t.Fatalf("at most %d records open, %d checkpoints; want more than %d open between checkpoints",
			mostOpen, checkpoints, checkpointEvery)
	}
	t.Logf("up to %d records open, %d checkpoints, largest record %d bytes", mostOpen, checkpoints, largest)

	want, err := s.Document("x")
	if err != nil {
		t.Fatal(err)
	}
	s.Kill()
	s.Quiesce()
	journal2, err := store.OpenJournal(logPath)
	if err != nil {
		t.Fatal(err)
	}
	restarted, _ := newCluster(t, 1, func(c *Config) { c.Store = st; c.Journal = journal2 })
	replayed, err := restarted[0].LoadDocument("x")
	if err != nil {
		t.Fatal(err)
	}
	if replayed != prevOpen {
		t.Fatalf("replayed %d records, want the %d open", replayed, prevOpen)
	}
	got, err := restarted[0].Document("x")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatal("the restarted tree differs from the one the crash cut")
	}
}
