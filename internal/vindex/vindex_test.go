package vindex_test

import (
	"fmt"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/vindex"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

const testDocXML = `<site>
  <people>
    <person key="p0"><id>0</id><name>Ana</name><emailaddress>a@x</emailaddress></person>
    <person key="p1"><id>1</id><name>Bruno</name><emailaddress>b@x</emailaddress></person>
    <person key="p2"><id>2</id><name>Carla</name><emailaddress>c@x</emailaddress></person>
    <person key="p3"><id>3</id><name>Ana</name><emailaddress>d@x</emailaddress></person>
  </people>
  <items>
    <item key="7"><id>100</id><price>3.50</price></item>
    <item key="8"><id>101</id><price>12.00</price></item>
  </items>
</site>`

func buildIndexed(t *testing.T, keys []string) (*xmltree.Document, *dataguide.DataGuide) {
	t.Helper()
	doc, err := xmltree.ParseString("d", testDocXML)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	g.AttachIndex(vindex.New(keys))
	g.ReindexAll(doc)
	return doc, g
}

// assertSame fails unless EvalIndexed served q and returned exactly the
// xpath.Eval node set.
func assertSame(t *testing.T, g *dataguide.DataGuide, doc *xmltree.Document, raw string) {
	t.Helper()
	q := xpath.MustParse(raw)
	indexed, ok := g.EvalIndexed(q)
	if !ok {
		t.Fatalf("%s: not served from the index", raw)
	}
	scan := xpath.Eval(q, doc)
	if len(indexed) != len(scan) {
		t.Fatalf("%s: indexed %d nodes, scan %d", raw, len(indexed), len(scan))
	}
	for i := range indexed {
		if indexed[i] != scan[i] {
			t.Fatalf("%s: node %d differs: indexed %s scan %s", raw, i, indexed[i].Name, scan[i].Name)
		}
	}
}

func TestIndexedMatchesScan(t *testing.T) {
	doc, g := buildIndexed(t, []string{"id", "name", "price", "@key"})
	for _, raw := range []string{
		"//person[id='2']",                 // child predicate, final step
		"//person[id='2']/name",            // child predicate + trailing step
		"//person[id='2']/emailaddress",    // the flagship point-lookup shape
		"/site/people/person[id='3']/name", // rooted path
		"//person[name='Ana']",             // duplicate values, two hits
		"//id[text()='2']",                 // text() predicate on the step itself
		"//person[@key='p1']/name",         // attribute predicate + suffix
		"//item[@key='7']/price",           // attribute predicate, other section
		"//person[id>='1'][id<'3']/name",   // ordered anchor + ordered residual
		"//item[price>'4']/id",             // numeric order (12.00 > 4, 3.50 not)
		"//person[id<='0']/name",           // boundary inclusive
		"//person[id='2'][name='Carla']",   // equality anchor + equality residual
		"//person[id='99']/name",           // no match: both paths empty
		"//person[name!='Ana'][id='1']",    // != is residual, eq anchors
		"//person[id='0']//emailaddress",   // descendant suffix step
		"//people/person[id='3']/*",        // wildcard suffix
		"//person[@key='p2']/@key",         // trailing attribute selection
	} {
		assertSame(t, g, doc, raw)
	}
}

func TestPlanQueryShapes(t *testing.T) {
	cases := []struct {
		raw string
		ok  bool
	}{
		{"//person[id='2']/name", true},
		{"//person[2]", false},                         // positional
		{"//person[id='2'][1]", false},                 // positional alongside value pred
		{"//person[id!='2']", false},                   // != never anchors
		{"//person", false},                            // no predicate
		{"//*[text()='2']", false},                     // text key needs an element label
		{"//*[@key='p1']", true},                       // attr key works on any label
		{"//people[person='x']/person[id='2']", false}, // predicates on two steps
		{"//person[id>'1']", true},
	}
	for _, tc := range cases {
		_, ok := vindex.PlanQuery(xpath.MustParse(tc.raw))
		if ok != tc.ok {
			t.Errorf("PlanQuery(%s) eligible = %v, want %v", tc.raw, ok, tc.ok)
		}
	}
}

// TestIndexMaintenance drives every update-language operation (and its undo)
// through xupdate with an indexed guide and checks the index stays exactly
// scan-equivalent after each step.
func TestIndexMaintenance(t *testing.T) {
	doc, g := buildIndexed(t, []string{"id", "name", "@key"})
	queries := []string{
		"//person[id='2']/name",
		"//person[name='Ana']",
		"//person[@key='p9']/id",
		"//person[id='50']",
		"//member[id='2']/name",
	}
	checkAll := func(step string) {
		t.Helper()
		for _, raw := range queries {
			q := xpath.MustParse(raw)
			indexed, ok := g.EvalIndexed(q)
			if !ok {
				t.Fatalf("%s: %s left the index path", step, raw)
			}
			scan := xpath.Eval(q, doc)
			if len(indexed) != len(scan) {
				t.Fatalf("%s: %s indexed %d nodes, scan %d", step, raw, len(indexed), len(scan))
			}
			for i := range indexed {
				if indexed[i] != scan[i] {
					t.Fatalf("%s: %s node %d differs", step, raw, i)
				}
			}
		}
	}
	checkAll("initial")

	updates := []*xupdate.Update{
		{Kind: xupdate.Insert, Target: "/site/people", Pos: xmltree.Into,
			New: &xupdate.NodeSpec{Name: "person",
				Attrs: []xmltree.Attr{{Name: "key", Value: "p9"}},
				Children: []*xupdate.NodeSpec{
					{Name: "id", Text: "50"}, {Name: "name", Text: "Zed"},
				}}},
		{Kind: xupdate.Change, Target: "//person[id='2']/name", Value: "Carlota"},
		{Kind: xupdate.Change, Target: "//person[id='1']", Attr: "key", Value: "q1"},
		{Kind: xupdate.Rename, Target: "//person[id='3']", NewName: "member"},
		{Kind: xupdate.Remove, Target: "//person[id='0']"},
		{Kind: xupdate.Transpose, Target: "//person[id='1']/id", Target2: "//person[id='1']/name"},
	}
	var recs []*xupdate.UndoRec
	for _, u := range updates {
		rec, _, err := xupdate.Apply(u, doc, g)
		if err != nil {
			t.Fatalf("apply %s: %v", u, err)
		}
		recs = append(recs, rec)
		checkAll("after " + u.String())
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if err := recs[i].Undo(doc, g); err != nil {
			t.Fatalf("undo %s: %v", updates[i], err)
		}
		checkAll("after undo of " + updates[i].String())
	}
}

// TestDocIndexMatchesScan: the snapshot-side DocIndex built from an
// immutable tree answers exactly what a scan of that tree answers, and
// refuses keys it was not built with.
func TestDocIndexMatchesScan(t *testing.T) {
	doc, err := xmltree.ParseString("d", testDocXML)
	if err != nil {
		t.Fatal(err)
	}
	snap := doc.Snapshot()
	di := vindex.BuildDocIndex(snap, []string{"id", "@key"})
	for _, raw := range []string{
		"//person[id='2']/name",
		"//person[id='2']/emailaddress",
		"//item[@key='7']/price",
		"//person[id>='1'][id<'3']/name",
		"//id[text()='2']",
		"//person[id='99']",
	} {
		q := xpath.MustParse(raw)
		plan, ok := vindex.PlanQuery(q)
		if !ok {
			t.Fatalf("%s: not plannable", raw)
		}
		nodes, ok := di.Eval(q, plan)
		if !ok {
			t.Fatalf("%s: DocIndex does not cover %s", raw, plan.Key)
		}
		scan := xpath.Eval(q, snap)
		if len(nodes) != len(scan) {
			t.Fatalf("%s: DocIndex %d nodes, scan %d", raw, len(nodes), len(scan))
		}
		for i := range nodes {
			if nodes[i] != scan[i] {
				t.Fatalf("%s: node %d differs", raw, i)
			}
		}
	}
	// A key it was not built with is absent: the reader must fall back.
	q := xpath.MustParse("//person[name='Ana']")
	plan, ok := vindex.PlanQuery(q)
	if !ok {
		t.Fatal("name query not plannable")
	}
	if _, ok := di.Eval(q, plan); ok {
		t.Fatal("DocIndex served a key it was not built with")
	}
}

// TestOrderedLookupTotalOrder pins the numeric-before-strings total order the
// sorted posting keys share with the scan path.
func TestOrderedLookupTotalOrder(t *testing.T) {
	xml := `<r><v><w>10</w></v><v><w>9</w></v><v><w>abc</w></v><v><w>2.5</w></v></r>`
	doc, err := xmltree.ParseString("d", xml)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	g.AttachIndex(vindex.New([]string{"w"}))
	g.ReindexAll(doc)
	for _, raw := range []string{
		"//v[w>'3']",  // 10 and 9 numerically; "abc" is above every number
		"//v[w<'10']", // 9 and 2.5
		"//v[w>='9']",
		"//v[w<='abc']",
	} {
		assertSame(t, g, doc, raw)
	}
}

// TestNestedRangeMatchesScan: a range predicate on a document whose matching
// elements nest hands Finish posting candidates in key order, several of
// them inside one another — the case its document-order sort (and the
// dedupe of a descendant suffix over nested candidates) exists for.
func TestNestedRangeMatchesScan(t *testing.T) {
	xml := `<r><g><w>5</w><g><w>7</w><g><w>1</w><x/></g><x/></g><w>9</w><x/></g>` +
		`<g><w>3</w><g><w>8</w><x/></g></g><x/></r>`
	doc, err := xmltree.ParseString("d", xml)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	g.AttachIndex(vindex.New([]string{"w"}))
	g.ReindexAll(doc)
	for _, raw := range []string{
		"//g[w>'2']",    // five nested hits, posted in value order
		"//g[w>'2']/x",  // child suffix from nested candidates
		"//g[w>'2']//x", // descendant suffix: overlapping subtrees
		"//g[w<'8']/w",
		"//g[w>='7']//g",
	} {
		assertSame(t, g, doc, raw)
	}
}

func TestIndexDisabledFallsBack(t *testing.T) {
	doc, err := xmltree.ParseString("d", testDocXML)
	if err != nil {
		t.Fatal(err)
	}
	g := dataguide.Build(doc)
	// No index attached at all: EvalIndexed must always decline.
	if _, ok := g.EvalIndexed(xpath.MustParse("//person[id='2']")); ok {
		t.Fatal("unattached guide served from an index")
	}
	// Attached, but the query's key is not indexed.
	g.AttachIndex(vindex.New([]string{"name"}))
	g.ReindexAll(doc)
	if _, ok := g.EvalIndexed(xpath.MustParse("//person[id='2']")); ok {
		t.Fatal("unindexed key served from an index")
	}
	if _, ok := g.EvalIndexed(xpath.MustParse("//person[name='Ana']")); !ok {
		t.Fatal("enabled key not served")
	}
}

func TestIndexKeysCanonical(t *testing.T) {
	ix := vindex.New([]string{"id", "@key", "name"})
	got := fmt.Sprintf("%v", ix.Keys())
	if got != "[@key id name]" {
		t.Fatalf("Keys() = %s", got)
	}
}
