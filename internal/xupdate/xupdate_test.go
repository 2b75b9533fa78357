package xupdate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const productsXML = `
<products>
  <product id="prod1"><id>4</id><description>Mouse</description><price>10.30</price></product>
  <product id="prod2"><id>14</id><description>Keyboard</description><price>9.90</price></product>
</products>`

func setup(t *testing.T) (*xmltree.Document, *dataguide.DataGuide) {
	t.Helper()
	doc, err := xmltree.ParseString("d2", productsXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc, dataguide.Build(doc)
}

func mustEval(t *testing.T, doc *xmltree.Document, q string) []*xmltree.Node {
	t.Helper()
	return xpath.Eval(xpath.MustParse(q), doc)
}

// productSpec mirrors the paper's scenario: insert a product "Mouse" priced
// 10.30 with identifier 13.
func productSpec(id, desc, price string) *NodeSpec {
	return &NodeSpec{
		Name: "product",
		Children: []*NodeSpec{
			{Name: "id", Text: id},
			{Name: "description", Text: desc},
			{Name: "price", Text: price},
		},
	}
}

func TestInsertInto(t *testing.T) {
	doc, g := setup(t)
	u := &Update{Kind: Insert, Target: "/products", Pos: xmltree.Into, New: productSpec("13", "Mouse2", "10.30")}
	rec, targets, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 {
		t.Fatalf("targets = %d", len(targets))
	}
	got := mustEval(t, doc, "//product[id='13']/description")
	if len(got) != 1 || got[0].Text != "Mouse2" {
		t.Fatalf("inserted product not found: %v", got)
	}
	if len(g.Lookup("/products/product").Extent) != 3 {
		t.Fatal("guide extent not maintained")
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, doc, "//product[id='13']"); len(got) != 0 {
		t.Fatal("undo left inserted product")
	}
	if len(g.Lookup("/products/product").Extent) != 2 {
		t.Fatal("guide extent not restored")
	}
}

func TestInsertBeforeAfter(t *testing.T) {
	doc, g := setup(t)
	u := &Update{Kind: Insert, Target: "/products/product[id='14']", Pos: xmltree.Before, New: productSpec("1", "First", "0.01")}
	if _, _, err := Apply(u, doc, g); err != nil {
		t.Fatal(err)
	}
	ids := mustEval(t, doc, "/products/product/id")
	want := []string{"4", "1", "14"}
	for i, n := range ids {
		if n.Text != want[i] {
			t.Fatalf("order after insert-before: pos %d = %s, want %s", i, n.Text, want[i])
		}
	}
	u2 := &Update{Kind: Insert, Target: "/products/product[id='14']", Pos: xmltree.After, New: productSpec("99", "Last", "9.99")}
	if _, _, err := Apply(u2, doc, g); err != nil {
		t.Fatal(err)
	}
	ids = mustEval(t, doc, "/products/product/id")
	want = []string{"4", "1", "14", "99"}
	for i, n := range ids {
		if n.Text != want[i] {
			t.Fatalf("order after insert-after: pos %d = %s, want %s", i, n.Text, want[i])
		}
	}
}

func TestRemove(t *testing.T) {
	doc, g := setup(t)
	before := doc.Clone()
	u := &Update{Kind: Remove, Target: "//product[id='4']"}
	rec, _, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, doc, "//product"); len(got) != 1 {
		t.Fatalf("remove left %d products", len(got))
	}
	if len(g.Lookup("/products/product").Extent) != 1 {
		t.Fatal("guide extent not shrunk")
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(before, doc) {
		t.Fatalf("undo did not restore document:\n%s", doc.String())
	}
}

func TestRemoveAllTargets(t *testing.T) {
	doc, g := setup(t)
	u := &Update{Kind: Remove, Target: "//price"}
	rec, targets, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(targets))
	}
	if got := mustEval(t, doc, "//price"); len(got) != 0 {
		t.Fatal("prices remain")
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, doc, "//price"); len(got) != 2 {
		t.Fatal("undo did not restore both prices")
	}
}

func TestRename(t *testing.T) {
	doc, g := setup(t)
	before := doc.Clone()
	u := &Update{Kind: Rename, Target: "//description", NewName: "desc"}
	rec, _, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, doc, "//desc"); len(got) != 2 {
		t.Fatalf("renamed nodes = %d", len(got))
	}
	if g.Lookup("/products/product/desc") == nil {
		t.Fatal("guide missing renamed path")
	}
	if len(g.Lookup("/products/product/description").Extent) != 0 {
		t.Fatal("old path extent not emptied")
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(before, doc) {
		t.Fatal("undo did not restore names")
	}
}

func TestChangeText(t *testing.T) {
	doc, g := setup(t)
	u := &Update{Kind: Change, Target: "//product[id='4']/price", Value: "12.00"}
	rec, _, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, doc, "//product[id='4']/price"); got[0].Text != "12.00" {
		t.Fatalf("price = %s", got[0].Text)
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, doc, "//product[id='4']/price"); got[0].Text != "10.30" {
		t.Fatalf("price after undo = %s", got[0].Text)
	}
}

func TestChangeAttr(t *testing.T) {
	doc, g := setup(t)
	u := &Update{Kind: Change, Target: "//product[id='4']", Attr: "id", Value: "prodX"}
	rec, _, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	n := mustEval(t, doc, "//product[id='4']")[0]
	if v, _ := n.Attr("id"); v != "prodX" {
		t.Fatalf("attr = %s", v)
	}
	// Changing a brand-new attribute must undo to absent.
	u2 := &Update{Kind: Change, Target: "//product[id='4']", Attr: "flag", Value: "on"}
	rec2, _, err := Apply(u2, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec2.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Attr("flag"); ok {
		t.Fatal("undo left new attribute")
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Attr("id"); v != "prod1" {
		t.Fatalf("attr after undo = %s", v)
	}
}

func TestTranspose(t *testing.T) {
	doc, g := setup(t)
	before := doc.Clone()
	u := &Update{Kind: Transpose, Target: "//product[id='4']", Target2: "//product[id='14']"}
	rec, _, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	ids := mustEval(t, doc, "/products/product/id")
	if ids[0].Text != "14" || ids[1].Text != "4" {
		t.Fatalf("transpose order: %s,%s", ids[0].Text, ids[1].Text)
	}
	if err := rec.Undo(doc, g); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(before, doc) {
		t.Fatal("undo did not restore order")
	}
}

func TestTransposeArityErrors(t *testing.T) {
	doc, g := setup(t)
	u := &Update{Kind: Transpose, Target: "//product", Target2: "//product[id='14']"}
	if _, _, err := Apply(u, doc, g); err == nil {
		t.Fatal("expected arity error for multi-target transpose")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Update{
		{Kind: Insert, Target: "/p"},                           // no spec
		{Kind: Insert, Target: "/p", New: &NodeSpec{}},         // unnamed spec
		{Kind: Rename, Target: "/p"},                           // no new name
		{Kind: Transpose, Target: "/p"},                        // no second path
		{Kind: Transpose, Target: "/p", Target2: "not-a-path"}, // bad second path
		{Kind: Remove, Target: "bad path"},                     // bad path
		{Kind: Kind(99), Target: "/p"},                         // unknown kind
	}
	for i, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("case %d (%v): expected validation error", i, u)
		}
	}
	good := &Update{Kind: Change, Target: "/p/q", Value: "v"}
	if err := good.Validate(); err != nil {
		t.Errorf("good update rejected: %v", err)
	}
}

func TestNoTargetsIsNoop(t *testing.T) {
	doc, g := setup(t)
	before := doc.Clone()
	u := &Update{Kind: Remove, Target: "//nothing"}
	rec, targets, err := Apply(u, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 0 || !rec.Empty() {
		t.Fatal("no-op should have no targets and empty undo")
	}
	if !xmltree.Equal(before, doc) {
		t.Fatal("no-op changed document")
	}
}

// randomUpdate builds a random valid update against the products document.
func randomUpdate(rng *rand.Rand) *Update {
	switch rng.Intn(5) {
	case 0:
		return &Update{Kind: Insert, Target: "/products", Pos: xmltree.Pos(rng.Intn(3)),
			New: productSpec("50", "Thing", "1.00")}
	case 1:
		return &Update{Kind: Remove, Target: "//product[id='4']"}
	case 2:
		return &Update{Kind: Rename, Target: "//description", NewName: "d2"}
	case 3:
		return &Update{Kind: Change, Target: "//price", Value: "7.77"}
	default:
		return &Update{Kind: Transpose, Target: "//product[id='4']", Target2: "//product[id='14']"}
	}
}

// Property: apply followed by undo restores both the document and the
// DataGuide extents exactly.
func TestPropertyApplyUndoIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc, err := xmltree.ParseString("d2", productsXML)
		if err != nil {
			return false
		}
		g := dataguide.Build(doc)
		before := doc.Clone()
		// Apply a random chain of 1..4 updates, then undo in reverse.
		n := 1 + rng.Intn(4)
		var recs []*UndoRec
		for i := 0; i < n; i++ {
			u := randomUpdate(rng)
			if u.Kind == Insert && u.Pos != xmltree.Into {
				// before/after need a non-root target
				u.Target = "/products/product[1]"
			}
			rec, _, err := Apply(u, doc, g)
			if err != nil {
				if u.Kind == Transpose {
					// A prior remove can make the transpose arity check fail;
					// the failed apply must have rolled itself back, so the
					// chain can continue.
					continue
				}
				return false
			}
			recs = append(recs, rec)
		}
		for i := len(recs) - 1; i >= 0; i-- {
			if err := recs[i].Undo(doc, g); err != nil {
				return false
			}
		}
		if !xmltree.Equal(before, doc) {
			return false
		}
		// Guide extents must match a fresh build.
		fresh := dataguide.Build(doc)
		for _, p := range fresh.Paths() {
			if len(fresh.Lookup(p).Extent) != len(g.Lookup(p).Extent) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	us := []*Update{
		{Kind: Insert, Target: "/p", Pos: xmltree.Into, New: &NodeSpec{Name: "x"}},
		{Kind: Remove, Target: "/p"},
		{Kind: Rename, Target: "/p", NewName: "q"},
		{Kind: Change, Target: "/p", Value: "v"},
		{Kind: Change, Target: "/p", Attr: "a", Value: "v"},
		{Kind: Transpose, Target: "/p", Target2: "/q"},
	}
	for _, u := range us {
		if u.String() == "" || u.String() == "unknown update" {
			t.Errorf("bad string for %v: %q", u.Kind, u.String())
		}
	}
}

func TestTargetQueryParsedOnce(t *testing.T) {
	u := &Update{Kind: Transpose, Target: "/p/a", Target2: "/p/b"}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	q1, err := u.TargetQuery()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := u.TargetQuery()
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("TargetQuery re-parsed after Validate")
	}
	s1, _ := u.Target2Query()
	s2, _ := u.Target2Query()
	if s1 != s2 {
		t.Fatal("Target2Query re-parsed after Validate")
	}
	bad := &Update{Kind: Remove, Target: "]["}
	if _, err := bad.TargetQuery(); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

// TestPeelRestoreUndo: for every update kind, with the update applied, Peel
// gives back the tree from before it, Restore the tree from after it (down to
// attribute order, which Equal ignores but replicas compare), and the record
// then undoes like a fresh one — all on the same nodes, with the guide never
// touched by the peel.
func TestPeelRestoreUndo(t *testing.T) {
	for _, u := range []*Update{
		{Kind: Insert, Target: "/products", Pos: xmltree.Into, New: productSpec("13", "Mouse2", "10.30")},
		{Kind: Insert, Target: "/products/product[id='14']", Pos: xmltree.Before, New: productSpec("1", "First", "0.01")},
		{Kind: Insert, Target: "/products/product", Pos: xmltree.After, New: productSpec("2", "Each", "0.02")},
		{Kind: Remove, Target: "//product[id='4']"},
		{Kind: Remove, Target: "//price"},
		{Kind: Rename, Target: "//description", NewName: "desc"},
		{Kind: Change, Target: "//product[id='4']/price", Value: "12.00"},
		{Kind: Change, Target: "//product", Attr: "id", Value: "prodX"},
		{Kind: Change, Target: "//product[id='4']", Attr: "flag", Value: "on"},
		{Kind: Transpose, Target: "//product[id='4']", Target2: "//product[id='14']"},
		{Kind: Remove, Target: "//nothing"},
	} {
		t.Run(u.String(), func(t *testing.T) {
			doc, g := setup(t)
			before := doc.Clone()
			sample := doc.Root.Children[1]
			rec, _, err := Apply(u, doc, g)
			if err != nil {
				t.Fatal(err)
			}
			after, extents := doc.String(), guideExtents(g)
			if err := rec.Peel(doc); err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(before, doc) {
				t.Fatalf("peeled tree differs from the one before the update:\n%s", doc)
			}
			if err := rec.Restore(doc); err != nil {
				t.Fatal(err)
			}
			if got := doc.String(); got != after {
				t.Fatalf("restored tree:\n%s\nwant:\n%s", got, after)
			}
			if got := guideExtents(g); got != extents {
				t.Fatalf("peel/restore moved the guide: %s, want %s", got, extents)
			}
			if err := rec.Undo(doc, g); err != nil {
				t.Fatal(err)
			}
			if !xmltree.Equal(before, doc) {
				t.Fatalf("undo after peel/restore did not restore the document:\n%s", doc)
			}
			if got := guideExtents(g); got != guideExtents(dataguide.Build(doc)) {
				t.Fatalf("guide after undo: %s, want a fresh build's", got)
			}
			if doc.Node(sample.ID) != sample || !doc.Attached(sample) {
				t.Fatalf("node %d was replaced or lost", sample.ID)
			}
		})
	}
}

// TestChangeAttrInversesAreAttributeLocal: two transactions change different
// attributes of one node (adding one, replacing another); their inverses
// peel, restore and undo in either order without disturbing each other, and
// a flip pair puts an added attribute back where it sat.
func TestChangeAttrInversesAreAttributeLocal(t *testing.T) {
	doc, g := setup(t)
	target := "//product[id='4']"
	first, _, err := Apply(&Update{Kind: Change, Target: target, Attr: "flag", Value: "on"}, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Apply(&Update{Kind: Change, Target: target, Attr: "id", Value: "prodX"}, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	third, _, err := Apply(&Update{Kind: Change, Target: "//product[@flag='on']", Attr: "tail", Value: "z"}, doc, g)
	if err != nil {
		t.Fatal(err)
	}
	node := mustEval(t, doc, "//product[@flag='on']")[0]
	after := fmt.Sprint(node.Attrs)

	// The older inverse alone comes off and goes back between the others.
	if err := first.Peel(doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := node.Attr("flag"); ok || fmt.Sprint(node.Attrs) == after {
		t.Fatalf("peeling the added attribute left %v", node.Attrs)
	}
	if v, _ := node.Attr("id"); v != "prodX" {
		t.Fatalf("peeling flag disturbed id: %v", node.Attrs)
	}
	if err := first.Restore(doc); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(node.Attrs); got != after {
		t.Fatalf("restored attributes %s, want %s", got, after)
	}

	// Undo out of order: the oldest first, the newest last.
	for _, rec := range []*UndoRec{first, third, second} {
		if err := rec.Undo(doc, g); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := setup(t)
	if !xmltree.Equal(fresh, doc) {
		t.Fatalf("out-of-order undo left:\n%s", doc)
	}
}

// guideExtents renders every non-empty guide path with its extent size.
func guideExtents(g *dataguide.DataGuide) string {
	var out []string
	for _, p := range g.Paths() {
		if n := len(g.Lookup(p).Extent); n > 0 {
			out = append(out, fmt.Sprintf("%s=%d", p, n))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// sectionsXML is a document of three sections, one per fuzzed "transaction":
// writers confined to disjoint subtrees are what the lock manager admits
// concurrently, and what makes any subset of them peelable.
const sectionsXML = `<root>
  <s0><item k="a"><v>1</v><w>2</w></item><item k="b"><v>3</v><w>4</w></item></s0>
  <s1><item k="c"><v>5</v><w>6</w></item><item k="d"><v>7</v><w>8</w></item></s1>
  <s2><item k="e"><v>9</v><w>10</w></item><item k="f"><v>11</v><w>12</w></item></s2>
</root>`

// sectionUpdate decodes one update confined to section sec from two bytes.
func sectionUpdate(sec int, kind, arg byte) *Update {
	s := fmt.Sprintf("/root/s%d", sec)
	val := fmt.Sprintf("x%d", arg)
	item := &NodeSpec{Name: "item", Attrs: []xmltree.Attr{{Name: "k", Value: val}},
		Children: []*NodeSpec{{Name: "v", Text: val}, {Name: "w", Text: val}}}
	switch kind % 9 {
	case 0:
		return &Update{Kind: Insert, Target: s, Pos: xmltree.Into, New: item}
	case 1:
		return &Update{Kind: Insert, Target: s + "/item[1]", Pos: xmltree.Before, New: item}
	case 2:
		return &Update{Kind: Insert, Target: s + "/item[1]", Pos: xmltree.After, New: item}
	case 3:
		return &Update{Kind: Remove, Target: s + fmt.Sprintf("/item[%d]", 1+arg%3)}
	case 4:
		return &Update{Kind: Rename, Target: s + "/item/v", NewName: "v" + val}
	case 5:
		return &Update{Kind: Change, Target: s + "/item/w", Value: val}
	case 6:
		return &Update{Kind: Change, Target: s + "/item[1]", Attr: "k", Value: val}
	case 7:
		return &Update{Kind: Change, Target: s + "/item", Attr: "n" + val, Value: val}
	default:
		return &Update{Kind: Transpose, Target: s + "/item[1]", Target2: s + "/item[2]"}
	}
}

// FuzzApplyPeelRestoreUndo interleaves random updates of three transactions,
// each confined to its own section, peels a random subset of the
// transactions and checks the tree against an independent replay of the rest;
// then restores (the tree must be byte-identical to the applied one) and
// undoes everything (the tree and guide must be the original ones).
func FuzzApplyPeelRestoreUndo(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 3, 0, 2, 5, 9}, byte(1))
	f.Add([]byte{0, 3, 0, 1, 8, 0, 2, 4, 7, 0, 7, 7, 1, 6, 2, 2, 2, 2}, byte(5))
	f.Add([]byte{1, 3, 1, 1, 3, 1, 1, 3, 1, 1, 1, 4}, byte(2))
	f.Fuzz(func(t *testing.T, script []byte, peelMask byte) {
		doc, err := xmltree.ParseString("d", sectionsXML)
		if err != nil {
			t.Fatal(err)
		}
		g := dataguide.Build(doc)
		before := doc.Clone()
		replay := doc.Clone() // gets the unpeeled transactions' updates only
		rg := dataguide.Build(replay)
		type applied struct {
			txn int
			rec *UndoRec
		}
		var log []applied
		for i := 0; i+2 < len(script) && len(log) < 24; i += 3 {
			k := int(script[i] % 3)
			rec, _, err := Apply(sectionUpdate(k, script[i+1], script[i+2]), doc, g)
			if err != nil {
				continue // a failed update (transpose arity) rolled itself back
			}
			log = append(log, applied{txn: k, rec: rec})
			if peelMask&(1<<k) == 0 {
				if _, _, err := Apply(sectionUpdate(k, script[i+1], script[i+2]), replay, rg); err != nil {
					t.Fatalf("replay of an update that applied: %v", err)
				}
			}
		}
		after := doc.String()
		for i := len(log) - 1; i >= 0; i-- {
			if peelMask&(1<<log[i].txn) != 0 {
				if err := log[i].rec.Peel(doc); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := doc.Snapshot().String(), replay.String(); got != want {
			t.Fatalf("tree with transactions %03b peeled:\n%s\nreplay of the others:\n%s", peelMask&7, got, want)
		}
		for _, a := range log {
			if peelMask&(1<<a.txn) != 0 {
				if err := a.rec.Restore(doc); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := doc.String(); got != after {
			t.Fatalf("restored tree:\n%s\nwant:\n%s", got, after)
		}
		for i := len(log) - 1; i >= 0; i-- {
			if err := log[i].rec.Undo(doc, g); err != nil {
				t.Fatal(err)
			}
		}
		if !xmltree.Equal(before, doc) {
			t.Fatalf("undo of everything left:\n%s", doc)
		}
		if got, want := guideExtents(g), guideExtents(dataguide.Build(doc)); got != want {
			t.Fatalf("guide after undo: %s, want %s", got, want)
		}
	})
}
