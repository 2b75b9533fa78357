package sched

import (
	"path/filepath"
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
	saved, err := s.cfg.Store.Load("d2")
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
	if err := st.Save(doc); err != nil {
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
