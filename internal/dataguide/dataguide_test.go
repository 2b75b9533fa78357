package dataguide

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const sampleXML = `
<site>
  <people>
    <person id="p0"><name>Ana</name><city>Fortaleza</city></person>
    <person id="p1"><name>Bruno</name></person>
    <person id="p2"><name>Carla</name><city>Recife</city></person>
  </people>
  <regions>
    <europe><item id="i0"><name>clock</name></item></europe>
    <asia><item id="i1"><name>vase</name></item></asia>
  </regions>
</site>`

func sample(t *testing.T) (*xmltree.Document, *DataGuide) {
	t.Helper()
	doc, err := xmltree.ParseString("d", sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc, Build(doc)
}

func TestBuildPaths(t *testing.T) {
	_, g := sample(t)
	want := []string{
		"/site",
		"/site/people",
		"/site/people/person",
		"/site/people/person/city",
		"/site/people/person/name",
		"/site/regions",
		"/site/regions/asia",
		"/site/regions/asia/item",
		"/site/regions/asia/item/name",
		"/site/regions/europe",
		"/site/regions/europe/item",
		"/site/regions/europe/item/name",
	}
	if got := g.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("paths:\n got %v\nwant %v", got, want)
	}
}

func TestExtents(t *testing.T) {
	doc, g := sample(t)
	person := g.Lookup("/site/people/person")
	if person == nil {
		t.Fatal("person path missing")
	}
	if len(person.Extent) != 3 {
		t.Fatalf("person extent = %d, want 3", len(person.Extent))
	}
	// Every element of the document maps to exactly one summary node whose
	// path equals the element's label path.
	doc.Walk(func(n *xmltree.Node) bool {
		gn := g.Of(n.ID)
		if gn == nil {
			t.Fatalf("node %d (%s) not in guide", n.ID, n.LabelPath())
		}
		if gn.Path() != n.LabelPath() {
			t.Fatalf("node %d: guide path %s != label path %s", n.ID, gn.Path(), n.LabelPath())
		}
		return true
	})
}

func TestLookup(t *testing.T) {
	_, g := sample(t)
	if g.Lookup("/site/people/person/name") == nil {
		t.Fatal("existing path not found")
	}
	if g.Lookup("/site/nowhere") != nil {
		t.Fatal("phantom path found")
	}
	if g.Lookup("/other") != nil {
		t.Fatal("wrong root found")
	}
	if g.Lookup("/site") != g.Root {
		t.Fatal("root lookup broken")
	}
}

func TestTargets(t *testing.T) {
	_, g := sample(t)
	cases := map[string][]string{
		"/site/people/person":      {"/site/people/person"},
		"//person":                 {"/site/people/person"},
		"//name":                   {"/site/people/person/name", "/site/regions/europe/item/name", "/site/regions/asia/item/name"},
		"//item/name":              {"/site/regions/europe/item/name", "/site/regions/asia/item/name"},
		"/site/*":                  {"/site/people", "/site/regions"},
		"//person[name='Ana']":     {"/site/people/person"}, // predicate ignored structurally
		"/site/regions//name":      {"/site/regions/europe/item/name", "/site/regions/asia/item/name"},
		"/site/people/person/name": {"/site/people/person/name"},
		"/nope":                    nil,
	}
	for query, want := range cases {
		q := xpath.MustParse(query)
		var got []string
		for _, n := range g.Targets(q) {
			got = append(got, n.Path())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Targets(%s):\n got %v\nwant %v", query, got, want)
		}
	}
}

func TestPredicateNodes(t *testing.T) {
	_, g := sample(t)
	q := xpath.MustParse("//person[name='Ana']")
	var got []string
	for _, n := range g.PredicateNodes(q) {
		got = append(got, n.Path())
	}
	want := []string{"/site/people/person/name"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PredicateNodes = %v, want %v", got, want)
	}
	// Attribute and position predicates produce no extra lock targets.
	if got := g.PredicateNodes(xpath.MustParse("//person[@id='p0'][2]")); len(got) != 0 {
		t.Fatalf("attr/pos predicates should yield none, got %v", got)
	}
}

func TestAddRemoveSubtree(t *testing.T) {
	doc, g := sample(t)
	people := xpath.Eval(xpath.MustParse("/site/people"), doc)[0]
	// Insert a new person with a brand-new child path (email).
	p := doc.NewElement("person")
	email := doc.NewElement("email")
	email.Text = "x@y"
	if err := doc.AttachAt(p, email, xmltree.Into); err != nil {
		t.Fatal(err)
	}
	if err := doc.AttachAt(people, p, xmltree.Into); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSubtree(p); err != nil {
		t.Fatal(err)
	}
	if g.Lookup("/site/people/person/email") == nil {
		t.Fatal("new path not added")
	}
	if len(g.Lookup("/site/people/person").Extent) != 4 {
		t.Fatal("extent not grown")
	}
	// Remove it again: path remains as tombstone, extent shrinks.
	g.RemoveSubtree(p)
	if _, err := doc.Detach(p); err != nil {
		t.Fatal(err)
	}
	if len(g.Lookup("/site/people/person").Extent) != 3 {
		t.Fatal("extent not shrunk")
	}
	eg := g.Lookup("/site/people/person/email")
	if eg == nil || len(eg.Extent) != 0 {
		t.Fatal("tombstone missing or non-empty")
	}
}

func TestRenameMaintenance(t *testing.T) {
	doc, g := sample(t)
	person := xpath.Eval(xpath.MustParse("//person[@id='p0']"), doc)[0]
	g.RemoveSubtree(person)
	person.Name = "vip"
	if err := g.AddSubtree(person); err != nil {
		t.Fatal(err)
	}
	if g.Lookup("/site/people/vip") == nil || g.Lookup("/site/people/vip/name") == nil {
		t.Fatal("renamed paths missing")
	}
	if len(g.Lookup("/site/people/person").Extent) != 2 {
		t.Fatal("old extent not shrunk")
	}
}

func TestMoveMaintenance(t *testing.T) {
	doc, g := sample(t)
	item := xpath.Eval(xpath.MustParse("/site/regions/europe/item"), doc)[0]
	asia := xpath.Eval(xpath.MustParse("/site/regions/asia"), doc)[0]
	g.RemoveSubtree(item)
	if _, err := doc.Detach(item); err != nil {
		t.Fatal(err)
	}
	if err := doc.AttachAt(asia, item, xmltree.Into); err != nil {
		t.Fatal(err)
	}
	if err := g.AddSubtree(item); err != nil {
		t.Fatal(err)
	}
	if len(g.Lookup("/site/regions/asia/item").Extent) != 2 {
		t.Fatal("asia extent wrong after move")
	}
	if len(g.Lookup("/site/regions/europe/item").Extent) != 0 {
		t.Fatal("europe extent wrong after move")
	}
}

func randomDoc(rng *rand.Rand, maxNodes int) *xmltree.Document {
	doc := xmltree.NewDocument("rand", "root")
	attached := []*xmltree.Node{doc.Root}
	names := []string{"a", "b", "c"}
	n := 1 + rng.Intn(maxNodes)
	for i := 0; i < n; i++ {
		parent := attached[rng.Intn(len(attached))]
		child := doc.NewElement(names[rng.Intn(len(names))])
		if err := doc.AttachAt(parent, child, xmltree.Into); err != nil {
			panic(err)
		}
		attached = append(attached, child)
	}
	return doc
}

// Property: the guide contains exactly the distinct label paths of the
// document, and extents partition the document's nodes.
func TestPropertyGuideInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 60)
		g := Build(doc)
		paths := map[string]bool{}
		count := 0
		doc.Walk(func(n *xmltree.Node) bool {
			paths[n.LabelPath()] = true
			count++
			gn := g.Of(n.ID)
			if gn == nil || gn.Path() != n.LabelPath() {
				t.Logf("node %d mismapped", n.ID)
				return false
			}
			return true
		})
		if len(g.Paths()) != len(paths) {
			t.Logf("guide has %d paths, doc has %d distinct", len(g.Paths()), len(paths))
			return false
		}
		total := 0
		for _, p := range g.Paths() {
			total += len(g.Lookup(p).Extent)
		}
		return total == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: incremental AddSubtree after random insertion matches a fresh
// Build of the mutated document (same path set and extent sizes).
func TestPropertyIncrementalMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 40)
		g := Build(doc)
		// Random insertion of a small subtree.
		var nodes []*xmltree.Node
		doc.Walk(func(n *xmltree.Node) bool { nodes = append(nodes, n); return true })
		parent := nodes[rng.Intn(len(nodes))]
		sub := doc.NewElement("z")
		leaf := doc.NewElement("w")
		if err := doc.AttachAt(sub, leaf, xmltree.Into); err != nil {
			return false
		}
		if err := doc.AttachAt(parent, sub, xmltree.Into); err != nil {
			return false
		}
		if err := g.AddSubtree(sub); err != nil {
			return false
		}
		fresh := Build(doc)
		if !reflect.DeepEqual(g.Paths(), fresh.Paths()) {
			return false
		}
		for _, p := range fresh.Paths() {
			if len(fresh.Lookup(p).Extent) != len(g.Lookup(p).Extent) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	_, g := sample(t)
	s := g.String()
	if s == "" {
		t.Fatal("empty rendering")
	}
}

func TestVersionBumpsOnStructureOnly(t *testing.T) {
	doc, g := sample(t)
	v0 := g.Version()
	// Extent-only churn: remove and re-add a subtree with existing paths.
	n := xpath.Eval(xpath.MustParse("//person"), doc)[0]
	g.RemoveSubtree(n)
	if err := g.AddSubtree(n); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v0 {
		t.Fatalf("extent churn bumped the version: %d -> %d", v0, g.Version())
	}
	// A new label path is structural.
	g.EnsureChild(g.Root, "brandnew")
	if g.Version() == v0 {
		t.Fatal("new summary node did not bump the version")
	}
}

func TestTargetsMemoInvalidation(t *testing.T) {
	_, g := sample(t)
	q := xpath.MustParse("/site/people/person")
	t1 := g.Targets(q)
	if len(t1) != 1 {
		t.Fatalf("targets = %v", t1)
	}
	// Memo hit returns the shared slice.
	if &t1[0] != &g.Targets(q)[0] {
		t.Fatal("second call did not hit the memo")
	}
	// Same shape, different values: still a hit.
	q2 := xpath.MustParse("/site/people/person[name='Ana']")
	q3 := xpath.MustParse("/site/people/person[name='Rui']")
	if len(g.PredicateNodes(q2)) == 0 {
		t.Fatal("no predicate nodes")
	}
	if &g.PredicateNodes(q2)[0] != &g.PredicateNodes(q3)[0] {
		t.Fatal("value-only variants did not share the memo entry")
	}
	// A structural change invalidates: the new path must appear.
	people := g.Lookup("/site/people")
	g.EnsureChild(people, "person2")
	qAll := xpath.MustParse("/site/people/*")
	found := false
	for _, n := range g.Targets(qAll) {
		if n.Label == "person2" {
			found = true
		}
	}
	if !found {
		t.Fatal("memo served a stale target set after a structural change")
	}
}

// TestTargetsMemoAliasRace guards the memo-slice aliasing fix: Targets,
// PredicateNodes, and TargetsPrefix hand out capacity-clipped slices, so a
// caller that appends to its result reallocates instead of scribbling into
// the shared memo. Run under -race, concurrent appenders and readers on the
// same warm memo entry must not interfere.
func TestTargetsMemoAliasRace(t *testing.T) {
	_, g := sample(t)
	q := xpath.MustParse("//person/name")
	pq := xpath.MustParse("//person[name='Ana']/name")
	warm := append([]*Node(nil), g.Targets(q)...)
	g.PredicateNodes(q)
	g.TargetsPrefix(pq, 1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ts := g.Targets(q)
				ts = append(ts, nil) // must reallocate, not extend the memo
				_ = ts
				ps := g.PredicateNodes(q)
				ps = append(ps, nil)
				_ = ps
				as := g.TargetsPrefix(pq, 1)
				as = append(as, nil)
				_ = as
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ts := g.Targets(q)
				if len(ts) != len(warm) {
					t.Error("memoized Targets length changed under concurrent appends")
					return
				}
				for k := range ts {
					if ts[k] != warm[k] {
						t.Error("memoized Targets content changed under concurrent appends")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
