package replica

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
)

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	c.Place("d1", 0, 1)
	c.Place("d2", 1)
	if got := c.Sites("d1"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("sites d1 = %v", got)
	}
	if got := c.Sites("unknown"); len(got) != 0 {
		t.Fatalf("unknown doc has sites %v", got)
	}
	if !c.Holds("d2", 1) || c.Holds("d2", 0) {
		t.Fatal("Holds wrong")
	}
	if got := c.Documents(); len(got) != 2 || got[0] != "d1" {
		t.Fatalf("documents = %v", got)
	}
	// Replace and dedupe, keeping the given order: the first site listed is
	// the read site.
	c.Place("d1", 2, 2, 0)
	if got := c.Sites("d1"); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("sites after replace = %v", got)
	}
	if s := c.String(); !strings.Contains(s, "site 0:") {
		t.Fatalf("render:\n%s", s)
	}
}

func genDoc(kids int, payload int) *xmltree.Document {
	doc := xmltree.NewDocument("base", "site")
	for i := 0; i < kids; i++ {
		k := doc.NewElement("entry")
		k.SetAttr("id", fmt.Sprintf("e%d", i))
		body := doc.NewElement("body")
		body.Text = strings.Repeat("x", payload)
		if err := doc.AttachAt(k, body, xmltree.Into); err != nil {
			panic(err)
		}
		if err := doc.AttachAt(doc.Root, k, xmltree.Into); err != nil {
			panic(err)
		}
	}
	return doc
}

func TestFragmentBasics(t *testing.T) {
	doc := genDoc(12, 40)
	frags, err := FragmentDocument(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 4 {
		t.Fatalf("fragments = %d", len(frags))
	}
	totalKids := 0
	for i, f := range frags {
		if f.Doc.Name != fmt.Sprintf("base#%d", i) {
			t.Fatalf("fragment name = %s", f.Doc.Name)
		}
		if f.Doc.Root.Name != "site" {
			t.Fatal("fragment root label changed")
		}
		if len(f.Doc.Root.Children) == 0 {
			t.Fatalf("fragment %d empty", i)
		}
		totalKids += len(f.Doc.Root.Children)
	}
	if totalKids != 12 {
		t.Fatalf("fragments cover %d subtrees, want 12", totalKids)
	}
}

func TestFragmentSizesBalanced(t *testing.T) {
	doc := genDoc(40, 100)
	frags, err := FragmentDocument(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	min, max := frags[0].Size, frags[0].Size
	for _, f := range frags[1:] {
		if f.Size < min {
			min = f.Size
		}
		if f.Size > max {
			max = f.Size
		}
	}
	// Uniform subtrees must fragment near-evenly.
	if float64(max) > 1.3*float64(min) {
		t.Fatalf("imbalanced fragments: min=%d max=%d", min, max)
	}
}

func TestFragmentPreservesDataGuidePaths(t *testing.T) {
	doc := genDoc(8, 10)
	g := dataguide.Build(doc)
	frags, err := FragmentDocument(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		fg := dataguide.Build(f.Doc)
		for _, p := range fg.Paths() {
			if g.Lookup(p) == nil {
				t.Fatalf("fragment introduces path %s not in original", p)
			}
		}
	}
}

func TestFragmentErrors(t *testing.T) {
	doc := genDoc(2, 10)
	if _, err := FragmentDocument(doc, 0); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := FragmentDocument(doc, 3); err == nil {
		t.Fatal("accepted more fragments than subtrees")
	}
	// Single fragment is the whole document.
	frags, err := FragmentDocument(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || len(frags[0].Doc.Root.Children) != 2 {
		t.Fatal("single fragment wrong")
	}
}

func TestFragmentContentPreserved(t *testing.T) {
	doc := genDoc(6, 20)
	frags, err := FragmentDocument(doc, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Concatenating fragments' children in order reproduces the original
	// child sequence (by id attribute).
	var ids []string
	for _, f := range frags {
		for _, k := range f.Doc.Root.Children {
			id, _ := k.Attr("id")
			ids = append(ids, id)
		}
	}
	for i, id := range ids {
		if id != fmt.Sprintf("e%d", i) {
			t.Fatalf("order broken at %d: %v", i, ids)
		}
	}
}

func TestAllocatePartial(t *testing.T) {
	c := NewCatalog()
	doc := genDoc(8, 30)
	perSite, err := AllocatePartial(c, []*xmltree.Document{doc}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(perSite) != 4 {
		t.Fatalf("perSite = %v", perSite)
	}
	for site := 0; site < 4; site++ {
		docs := perSite[site]
		if len(docs) != 1 {
			t.Fatalf("site %d has %d docs", site, len(docs))
		}
		name := docs[0].Name
		if got := c.Sites(name); len(got) != 1 || got[0] != site {
			t.Fatalf("catalog sites(%s) = %v", name, got)
		}
	}
}

// Property: fragmentation covers all subtrees exactly once, for any valid
// (kids, n) combination, and all fragments are non-empty.
func TestPropertyFragmentationPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kids := 1 + rng.Intn(30)
		n := 1 + rng.Intn(kids)
		doc := xmltree.NewDocument("p", "root")
		for i := 0; i < kids; i++ {
			k := doc.NewElement("c")
			k.Text = strings.Repeat("y", rng.Intn(200))
			if err := doc.AttachAt(doc.Root, k, xmltree.Into); err != nil {
				return false
			}
		}
		frags, err := FragmentDocument(doc, n)
		if err != nil {
			return false
		}
		if len(frags) != n {
			return false
		}
		total := 0
		for _, f := range frags {
			if len(f.Doc.Root.Children) == 0 {
				return false
			}
			total += len(f.Doc.Root.Children)
		}
		return total == kids
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
