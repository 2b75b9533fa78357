package sched

import (
	"context"
	"slices"
	"testing"

	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// TestNewLabelPathDescendantVisibility: descendant steps are pruned on each
// replica's label-path summary, so a path that did not exist when a reader's
// tree was pinned, or when the guide was built, is the case to get right.
// Under every protocol, on a document replicated at two sites: a transaction
// that inserts an element under a brand-new label path sees it with
// '//newlabel' before and after commit, at both replicas; a snapshot reader
// pinned before that commit sees none of it.
func TestNewLabelPathDescendantVisibility(t *testing.T) {
	ctx := context.Background()
	for _, proto := range []string{"xdgl", "node2pl", "doclock"} {
		t.Run(proto, func(t *testing.T) {
			sites, _ := newClusterWithProtocol(t, 2, proto, nil)
			for _, s := range sites {
				addDoc(t, s, "d1", peopleXML)
			}
			expect := func(what string, got []string, err error, want ...string) {
				t.Helper()
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: %q (%v), want %q", what, got, err, want)
				}
			}

			reader, err := sites[1].BeginReadOnly(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reader.Exec(txn.NewQuery("d1", "//person/name"))
			expect("pinning read", got, err, "Ana", "Bruno")

			writer, err := sites[0].Begin(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Exec(txn.NewUpdate("d1", &xupdate.Update{
				Kind: xupdate.Insert, Target: "/people/person[2]", Pos: xmltree.Into,
				New: &xupdate.NodeSpec{Name: "vip", Children: []*xupdate.NodeSpec{{Name: "badge", Text: "gold"}}},
			})); err != nil {
				t.Fatal(err)
			}
			got, err = writer.Exec(txn.NewQuery("d1", "//badge"))
			expect("writer's own read", got, err, "gold")
			got, err = writer.Exec(txn.NewQuery("d1", "//person//vip/badge"))
			expect("writer's nested read", got, err, "gold")
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}

			for i, s := range sites {
				res, err := s.Submit([]txn.Operation{txn.NewQuery("d1", "//vip/badge")})
				if err != nil || res.State != txn.Committed {
					t.Fatalf("site %d locked read: %v %+v", i, err, res)
				}
				expect("locked read after commit", res.Results[0], nil, "gold")
				res, err = s.SubmitReadOnly([]txn.Operation{txn.NewQuery("d1", "//badge")})
				if err != nil || res.State != txn.Committed {
					t.Fatalf("site %d snapshot read: %v %+v", i, err, res)
				}
				expect("snapshot read after commit", res.Results[0], nil, "gold")
			}

			got, err = reader.Exec(txn.NewQuery("d1", "//badge"))
			expect("reader pinned before the commit, new label", got, err)
			got, err = reader.Exec(txn.NewQuery("d1", "//person/*"))
			expect("reader pinned before the commit, whole people", got, err, "4", "Ana", "7", "Bruno")
			if err := reader.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
