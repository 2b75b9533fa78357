package sched

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
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

	open, err = store.Recover(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
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

	open, err := store.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
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

// TestCheckpointProgressUnderOverlappingWriters: a checkpoint lags by at most
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
