package recovery

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// TestCrashValueIndexReplay — the value-index entry of the crash-point
// table: with indexed sites, a participant is killed right after its intent,
// after the in-memory tree and index mutated (they change in one critical
// section) and before any checkpoint. The restart — without catch-up, so the
// journal is all it has — reloads the saved document, rebuilds the index
// from it and replays the intent through the same hooks that maintain the
// index under traffic, so the restarted site's indexed point lookups must
// agree with a scan of its recovered tree and with the survivors — before
// and after a post-recovery write.
func TestCrashValueIndexReplay(t *testing.T) {
	c := newCrashClusterIndexed(t, 3, []string{"id", "name"})
	fired := make(chan struct{})
	var once sync.Once
	c.hooks[1].AfterIntent = func(txn.ID, []string) {
		once.Do(func() { c.sites[1].Kill(); close(fired) })
	}

	// The doomed transaction: the tree+index mutation happens at every
	// replica; site 1 dies with it in its journal only.
	_, _ = c.sites[0].Submit([]txn.Operation{changeNameOp()})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("kill hook never fired")
	}

	// Survivors keep serving the indexed lookup while the victim is down.
	const lookup = "//person[id='4']/name"
	eventually(t, 5*time.Second, "indexed reads from survivors", func() bool {
		res, err := c.sites[0].Submit([]txn.Operation{txn.NewQuery("d1", lookup)})
		return err == nil && res.State == txn.Committed
	})

	report := c.restartWith(1, Options{Timeout: time.Second})
	if report.Replayed != 1 {
		t.Fatalf("want the doomed transaction replayed from the journal, got: %s", report)
	}

	assertIndexedMatchesScan := func(what string) {
		t.Helper()
		// All replicas hold identical XML.
		want, err := c.sites[0].Document("d1")
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.sites[1].Document("d1")
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: restarted site diverged (report: %s)\nsite 0: %s\nsite 1: %s",
				what, report, want.String(), got.String())
		}
		// The restarted site's index answers exactly what a scan of its own
		// recovered tree answers.
		res, err := c.sites[1].Submit([]txn.Operation{txn.NewQuery("d1", lookup)})
		if err != nil || res.State != txn.Committed {
			t.Fatalf("%s: indexed lookup at restarted site: %v %+v", what, err, res)
		}
		scan := xpath.EvalStrings(xpath.MustParse(lookup), got)
		if !reflect.DeepEqual(res.Results[0], scan) {
			t.Fatalf("%s: indexed lookup %v != scan %v", what, res.Results[0], scan)
		}
	}
	assertIndexedMatchesScan("after restart")
	var indexed int64
	for _, s := range c.sites {
		indexed += s.Stats().IndexedQueries
	}
	if indexed == 0 {
		t.Fatal("no site answered the lookup from its index")
	}

	// A write after readmission must keep the rebuilt index maintained.
	eventually(t, 5*time.Second, "writes after readmission", func() bool {
		res, err := c.sites[0].Submit([]txn.Operation{txn.NewUpdate("d1", &xupdate.Update{
			Kind: xupdate.Change, Target: lookup, Value: "Post",
		})})
		return err == nil && res.State == txn.Committed
	})
	assertIndexedMatchesScan("after post-recovery write")
}
