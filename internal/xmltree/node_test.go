package xmltree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Document {
	t.Helper()
	doc, err := ParseString("d1", `
<people>
  <person id="p1"><id>4</id><name>Ana</name></person>
  <person id="p2"><id>7</id><name>Bruno</name></person>
</people>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func TestParseBasics(t *testing.T) {
	doc := buildSample(t)
	if doc.Root.Name != "people" {
		t.Fatalf("root = %q, want people", doc.Root.Name)
	}
	if len(doc.Root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(doc.Root.Children))
	}
	p1 := doc.Root.Children[0]
	if v, ok := p1.Attr("id"); !ok || v != "p1" {
		t.Fatalf("attr id = %q/%v, want p1/true", v, ok)
	}
	if p1.Children[1].Text != "Ana" {
		t.Fatalf("name text = %q, want Ana", p1.Children[1].Text)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       ``,
		"unbalanced":  `<a><b></a>`,
		"trailing":    `<a></a><b></b>`,
		"malformed":   `<a`,
		"textOnly":    `hello`,
		"closedFirst": `</a>`,
	}
	for name, in := range cases {
		if _, err := ParseString(name, in); err == nil {
			t.Errorf("%s: expected parse error for %q", name, in)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	doc := buildSample(t)
	out := doc.String()
	doc2, err := ParseString("d1", out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !Equal(doc, doc2) {
		t.Fatalf("round trip not equal:\n%s\nvs\n%s", out, doc2.String())
	}
}

func TestEscaping(t *testing.T) {
	doc := NewDocument("esc", "root")
	child := doc.NewElement("c")
	child.Text = `a<b&"c"`
	child.SetAttr("k", `v<&>"`)
	if err := doc.AttachAt(doc.Root, child, Into); err != nil {
		t.Fatal(err)
	}
	doc2, err := ParseString("esc", doc.String())
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if !Equal(doc, doc2) {
		t.Fatalf("escaped round trip mismatch:\n%s", doc.String())
	}
}

func TestLabelPath(t *testing.T) {
	doc := buildSample(t)
	name := doc.Root.Children[0].Children[1]
	if got := name.LabelPath(); got != "/people/person/name" {
		t.Fatalf("LabelPath = %q", got)
	}
	segs := name.PathSegments()
	want := []string{"people", "person", "name"}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments = %v, want %v", segs, want)
		}
	}
}

func TestAttachDetach(t *testing.T) {
	doc := buildSample(t)
	n := doc.NewElement("person")
	if err := doc.AttachAt(doc.Root, n, Into); err != nil {
		t.Fatal(err)
	}
	if n.Index() != 2 {
		t.Fatalf("index = %d, want 2", n.Index())
	}
	idx, err := doc.Detach(n)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("detach idx = %d, want 2", idx)
	}
	if doc.Attached(n) {
		t.Fatal("node still attached")
	}
	// Reattach at original position via AttachChildAt.
	if err := doc.AttachChildAt(doc.Root, n, idx); err != nil {
		t.Fatal(err)
	}
	if n.Index() != 2 {
		t.Fatalf("restored index = %d, want 2", n.Index())
	}
}

func TestAttachBeforeAfter(t *testing.T) {
	doc := buildSample(t)
	first := doc.Root.Children[0]
	b := doc.NewElement("markerB")
	a := doc.NewElement("markerA")
	if err := doc.AttachAt(first, b, Before); err != nil {
		t.Fatal(err)
	}
	if err := doc.AttachAt(first, a, After); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, 4)
	for _, c := range doc.Root.Children {
		names = append(names, c.Name)
	}
	got := strings.Join(names, ",")
	if got != "markerB,person,markerA,person" {
		t.Fatalf("order = %s", got)
	}
}

func TestAttachErrors(t *testing.T) {
	doc := buildSample(t)
	other := NewDocument("other", "r")
	foreign := other.NewElement("x")
	if err := doc.AttachAt(doc.Root, foreign, Into); err == nil {
		t.Error("expected cross-document attach error")
	}
	if err := doc.AttachAt(doc.Root.Children[0], doc.Root, Into); err == nil {
		t.Error("expected cannot-attach-root error")
	}
	// Cycle: attaching an ancestor under its descendant.
	person := doc.Root.Children[0]
	if _, err := doc.Detach(person); err != nil {
		t.Fatal(err)
	}
	if err := doc.AttachAt(person.Children[0], person, Into); err == nil {
		t.Error("expected cycle error")
	}
	if err := doc.AttachAt(doc.Root, person, Before); err == nil {
		t.Error("expected cannot-insert-before-root error")
	}
	if _, err := doc.Detach(doc.Root); err == nil {
		t.Error("expected cannot-detach-root error")
	}
}

func TestTranspose(t *testing.T) {
	doc := buildSample(t)
	p1, p2 := doc.Root.Children[0], doc.Root.Children[1]
	if err := doc.Transpose(p1, p2); err != nil {
		t.Fatal(err)
	}
	if doc.Root.Children[0] != p2 || doc.Root.Children[1] != p1 {
		t.Fatal("transpose did not swap siblings")
	}
	// Transposing ancestor/descendant must fail.
	if err := doc.Transpose(p1, p1.Children[0]); err == nil {
		t.Error("expected ancestor/descendant transpose error")
	}
	if err := doc.Transpose(doc.Root, p1); err == nil {
		t.Error("expected root transpose error")
	}
	if err := doc.Transpose(p1, p1); err != nil {
		t.Errorf("self transpose should be a no-op: %v", err)
	}
}

func TestTransposeAcrossParents(t *testing.T) {
	doc, err := ParseString("d", `<r><a><x>1</x></a><b><y>2</y></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	x := doc.Root.Children[0].Children[0]
	y := doc.Root.Children[1].Children[0]
	if err := doc.Transpose(x, y); err != nil {
		t.Fatal(err)
	}
	if doc.Root.Children[0].Children[0].Name != "y" || doc.Root.Children[1].Children[0].Name != "x" {
		t.Fatalf("cross-parent transpose wrong:\n%s", doc.String())
	}
	if x.Parent.Name != "b" || y.Parent.Name != "a" {
		t.Fatal("parents not updated")
	}
}

func TestCloneIndependence(t *testing.T) {
	doc := buildSample(t)
	cp := doc.Clone()
	if !Equal(doc, cp) {
		t.Fatal("clone not equal")
	}
	// IDs preserved.
	if cp.Root.ID != doc.Root.ID {
		t.Fatal("clone changed root ID")
	}
	cp.Root.Children[0].Children[1].Text = "Changed"
	if Equal(doc, cp) {
		t.Fatal("mutating clone affected original (or Equal is broken)")
	}
	// New elements in clone must not collide with original IDs.
	n := cp.NewElement("z")
	if doc.Node(n.ID) != nil {
		t.Fatal("clone shares node table with original")
	}
}

func TestAttrOps(t *testing.T) {
	doc := buildSample(t)
	p := doc.Root.Children[0]
	prev, existed := p.SetAttr("id", "p9")
	if !existed || prev != "p1" {
		t.Fatalf("SetAttr prev=%q existed=%v", prev, existed)
	}
	if v, _ := p.Attr("id"); v != "p9" {
		t.Fatalf("attr after set = %q", v)
	}
	if _, existed := p.SetAttr("new", "1"); existed {
		t.Fatal("new attr reported as existing")
	}
	prev, existed = p.RemoveAttr("new")
	if !existed || prev != "1" {
		t.Fatalf("RemoveAttr prev=%q existed=%v", prev, existed)
	}
	if _, existed := p.RemoveAttr("absent"); existed {
		t.Fatal("removing absent attr reported as existing")
	}
}

func TestWalkAndCounts(t *testing.T) {
	doc := buildSample(t)
	if got := doc.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7 (people + 2*(person,id,name))", got)
	}
	if got := doc.Root.SubtreeSize(); got != 7 {
		t.Fatalf("SubtreeSize = %d, want 7", got)
	}
	if got := len(doc.Root.Children[0].Descendants()); got != 2 {
		t.Fatalf("descendants = %d, want 2", got)
	}
	if got := len(doc.Root.Children[0].Children[0].Ancestors()); got != 2 {
		t.Fatalf("ancestors = %d, want 2", got)
	}
	// Early-stop walk.
	visited := 0
	doc.Walk(func(*Node) bool { visited++; return visited < 3 })
	if visited != 3 {
		t.Fatalf("early stop visited = %d, want 3", visited)
	}
	if doc.ByteSize() <= 0 {
		t.Fatal("ByteSize must be positive")
	}
}

// randomDoc builds a random tree for property tests.
func randomDoc(rng *rand.Rand, maxNodes int) *Document {
	doc := NewDocument("rand", "root")
	attached := []*Node{doc.Root}
	names := []string{"a", "b", "c", "d", "e"}
	n := 1 + rng.Intn(maxNodes)
	for i := 0; i < n; i++ {
		parent := attached[rng.Intn(len(attached))]
		child := doc.NewElement(names[rng.Intn(len(names))])
		if rng.Intn(2) == 0 {
			child.Text = names[rng.Intn(len(names))]
		}
		if rng.Intn(3) == 0 {
			child.SetAttr("k", names[rng.Intn(len(names))])
		}
		if err := doc.AttachAt(parent, child, Into); err != nil {
			panic(err)
		}
		attached = append(attached, child)
	}
	return doc
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 40)
		doc2, err := ParseString("rand", doc.String())
		if err != nil {
			t.Logf("reparse failed: %v\n%s", err, doc.String())
			return false
		}
		return Equal(doc, doc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 40)
		return Equal(doc, doc.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDetachAttachIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomDoc(rng, 40)
		before := doc.Clone()
		// Pick a random non-root attached node, detach it, reattach at the
		// recorded position: document must be unchanged.
		var nodes []*Node
		doc.Walk(func(n *Node) bool {
			if n != doc.Root {
				nodes = append(nodes, n)
			}
			return true
		})
		if len(nodes) == 0 {
			return true
		}
		n := nodes[rng.Intn(len(nodes))]
		parent := n.Parent
		idx, err := doc.Detach(n)
		if err != nil {
			return false
		}
		if err := doc.AttachChildAt(parent, n, idx); err != nil {
			return false
		}
		return Equal(before, doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMatchesClone(t *testing.T) {
	doc, err := ParseString("d", `<r a="1"><b>text</b><c><d x="y"/></c><b>two</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	snap := doc.Snapshot()
	if !Equal(doc, snap) {
		t.Fatalf("snapshot differs:\n%s\nvs\n%s", doc, snap)
	}
	if doc.String() != snap.String() {
		t.Fatal("serialized forms differ")
	}
	// The snapshot shares no mutable state: mutating the original must not
	// show through.
	doc.Root.Children[0].Text = "mutated"
	doc.Root.Attrs[0].Value = "2"
	if snap.Root.Children[0].Text != "text" || snap.Root.Attrs[0].Value != "1" {
		t.Fatal("snapshot aliased the original document")
	}
}

// TestSnapshotGrowingDocumentMatchesClone snapshots a document that grows
// between snapshots: each one sizes its arenas from its own count, and must
// match a deep clone exactly.
func TestSnapshotGrowingDocumentMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	doc := NewDocument("d", "root")
	for round := 0; round < 12; round++ {
		// Grow: attach a random batch of children with attributes and text.
		var attached []*Node
		doc.Walk(func(n *Node) bool { attached = append(attached, n); return true })
		for i := 0; i < 1+rng.Intn(40); i++ {
			parent := attached[rng.Intn(len(attached))]
			n := doc.NewElement("e")
			n.Text = strings.Repeat("x", rng.Intn(8))
			for a := 0; a < rng.Intn(3); a++ {
				n.SetAttr(string(rune('a'+a)), "v")
			}
			if err := doc.AttachAt(parent, n, Into); err != nil {
				t.Fatalf("attach: %v", err)
			}
		}
		snap := doc.Snapshot()
		if !Equal(doc, snap) {
			t.Fatalf("round %d: snapshot differs from document", round)
		}
		if !Equal(doc.Clone(), snap) {
			t.Fatalf("round %d: snapshot differs from clone", round)
		}
		// Snapshots must not alias: mutate the original and re-check.
		mutate := attached[rng.Intn(len(attached))]
		old := mutate.Text
		mutate.Text = "mutated"
		if Equal(doc, snap) && old != "mutated" {
			t.Fatalf("round %d: snapshot aliased the live tree", round)
		}
		mutate.Text = old
		// A snapshot of the snapshot must round-trip too.
		if !Equal(snap, snap.Snapshot()) {
			t.Fatalf("round %d: re-snapshot differs", round)
		}
	}
}
