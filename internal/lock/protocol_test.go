package lock

import (
	"testing"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

func modesOn(reqs []Request, path string) map[Mode]bool {
	out := map[Mode]bool{}
	for _, r := range reqs {
		if r.Node != nil && r.Node.Path() == path {
			out[r.Mode] = true
		}
	}
	return out
}

// docModesOn collects modes requested on document nodes with the given
// label path (ignoring the per-node disambiguation).
func docModesOn(reqs []Request, labelPath string) map[Mode]int {
	out := map[Mode]int{}
	for _, r := range reqs {
		if r.DocNode != nil && r.DocNode.LabelPath() == labelPath {
			out[r.Mode]++
		}
	}
	return out
}

func docAndGuide(t *testing.T) (*xmltree.Document, *dataguide.DataGuide) {
	t.Helper()
	doc, err := xmltree.ParseString("d2", storeXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc, dataguide.Build(doc)
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"xdgl": "xdgl", "": "xdgl", "node2pl": "node2pl", "doclock": "doclock",
	} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("ByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	for _, name := range []string{"bogus", "tree", "doc", "xdgl-noguard"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%q) accepted an unknown protocol", name)
		}
	}
}

func TestXDGLQueryLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	reqs, err := XDGL{}.QueryRequests(doc, g, xpath.MustParse("/products/product/price"))
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products/product/price"); !m[ST] {
		t.Fatalf("target missing ST: %v", m)
	}
	if m := modesOn(reqs, "/products/product"); !m[IS] {
		t.Fatalf("ancestor missing IS: %v", m)
	}
	if m := modesOn(reqs, "/products"); !m[IS] {
		t.Fatalf("root missing IS: %v", m)
	}
}

func TestXDGLQueryPredicateLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	reqs, err := XDGL{}.QueryRequests(doc, g, xpath.MustParse("//product[id='4']/price"))
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products/product/id"); !m[ST] {
		t.Fatalf("predicate node missing ST: %v", m)
	}
}

func TestXDGLInsertIntoLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	u := &xupdate.Update{Kind: xupdate.Insert, Target: "/products", Pos: xmltree.Into,
		New: &xupdate.NodeSpec{Name: "product"}}
	reqs, err := XDGL{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products"); !m[SI] || !m[IX] {
		t.Fatalf("connecting node needs SI+IX: %v", m)
	}
	if m := modesOn(reqs, "/products/product"); !m[X] {
		t.Fatalf("inserted path needs X: %v", m)
	}
}

func TestXDGLInsertBeforeAfterLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	for _, tc := range []struct {
		pos  xmltree.Pos
		mode Mode
	}{{xmltree.Before, SB}, {xmltree.After, SA}} {
		u := &xupdate.Update{Kind: xupdate.Insert, Target: "/products/product[1]", Pos: tc.pos,
			New: &xupdate.NodeSpec{Name: "product"}}
		reqs, err := XDGL{}.UpdateRequests(doc, g, u)
		if err != nil {
			t.Fatal(err)
		}
		if m := modesOn(reqs, "/products/product"); !m[tc.mode] || !m[X] {
			t.Fatalf("pos %v: reference node needs %v and X on sibling path: %v", tc.pos, tc.mode, m)
		}
		if m := modesOn(reqs, "/products"); !m[IX] || !m[IS] {
			t.Fatalf("pos %v: parent needs IX+IS: %v", tc.pos, m)
		}
	}
	// Inserting before the root is impossible.
	u := &xupdate.Update{Kind: xupdate.Insert, Target: "/products", Pos: xmltree.Before,
		New: &xupdate.NodeSpec{Name: "x"}}
	if _, err := (XDGL{}).UpdateRequests(doc, g, u); err == nil {
		t.Fatal("expected error for insert-before-root")
	}
}

func TestXDGLRemoveLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	u := &xupdate.Update{Kind: xupdate.Remove, Target: "//product[id='4']"}
	reqs, err := XDGL{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products/product"); !m[XT] {
		t.Fatalf("target needs XT: %v", m)
	}
	if m := modesOn(reqs, "/products"); !m[IX] {
		t.Fatalf("ancestor needs IX: %v", m)
	}
	if m := modesOn(reqs, "/products/product/id"); !m[ST] {
		t.Fatalf("predicate node needs ST: %v", m)
	}
}

func TestXDGLRenameLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	u := &xupdate.Update{Kind: xupdate.Rename, Target: "//description", NewName: "desc"}
	reqs, err := XDGL{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products/product/description"); !m[XT] {
		t.Fatalf("old path needs XT: %v", m)
	}
	if m := modesOn(reqs, "/products/product/desc"); !m[X] {
		t.Fatalf("new path needs X: %v", m)
	}
	// Renaming the root is rejected.
	bad := &xupdate.Update{Kind: xupdate.Rename, Target: "/products", NewName: "p"}
	if _, err := (XDGL{}).UpdateRequests(doc, g, bad); err == nil {
		t.Fatal("expected error renaming root")
	}
}

func TestXDGLChangeLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	u := &xupdate.Update{Kind: xupdate.Change, Target: "//price", Value: "1"}
	reqs, err := XDGL{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products/product/price"); !m[X] {
		t.Fatalf("target needs X: %v", m)
	}
	if m := modesOn(reqs, "/products/product"); !m[IX] {
		t.Fatalf("ancestor needs IX: %v", m)
	}
}

func TestXDGLTransposeLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	u := &xupdate.Update{Kind: xupdate.Transpose,
		Target: "//product[id='4']", Target2: "//product[id='14']"}
	reqs, err := XDGL{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	if m := modesOn(reqs, "/products/product"); !m[XT] {
		t.Fatalf("targets need XT: %v", m)
	}
}

func TestNode2PLQueryLocks(t *testing.T) {
	doc, g := docAndGuide(t)
	reqs, err := Node2PL{}.QueryRequests(doc, g, xpath.MustParse("//product[id='4']/price"))
	if err != nil {
		t.Fatal(err)
	}
	// The matched node is R-locked, and so is its full path to the root.
	if m := docModesOn(reqs, "/products/product/price"); m[R] != 1 {
		t.Fatalf("price R locks = %v", m)
	}
	if m := docModesOn(reqs, "/products/product"); m[R] != 1 {
		t.Fatalf("parent R locks = %v", m)
	}
	if m := docModesOn(reqs, "/products"); m[R] != 1 {
		t.Fatalf("root R locks = %v", m)
	}
	for _, r := range reqs {
		if r.Mode != R || r.DocNode == nil {
			t.Fatalf("unexpected request %+v in Node2PL query", r)
		}
	}
	// Lock count scales with result size times depth: //product matches
	// both items, each with a 2-node path.
	reqs, err = Node2PL{}.QueryRequests(doc, g, xpath.MustParse("//product"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 4 {
		t.Fatalf("lock count = %d, want 2 results x 2 path nodes", len(reqs))
	}
}

func TestNode2PLUpdateLocksParent(t *testing.T) {
	doc, g := docAndGuide(t)
	u := &xupdate.Update{Kind: xupdate.Remove, Target: "//price"}
	reqs, err := Node2PL{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	// Each price's parent product node is W-locked, ancestors R-locked.
	if m := docModesOn(reqs, "/products/product"); m[W] != 2 {
		t.Fatalf("remove must W-lock each parent: %v", m)
	}
	if m := docModesOn(reqs, "/products"); m[R] != 2 {
		t.Fatalf("remove must R-lock ancestors: %v", m)
	}
	// Insert into the root W-locks the root document node.
	u2 := &xupdate.Update{Kind: xupdate.Insert, Target: "/products", Pos: xmltree.Into,
		New: &xupdate.NodeSpec{Name: "product"}}
	reqs2, err := Node2PL{}.UpdateRequests(doc, g, u2)
	if err != nil {
		t.Fatal(err)
	}
	if m := docModesOn(reqs2, "/products"); m[W] != 1 {
		t.Fatalf("insert-into must W-lock the target: %v", m)
	}
}

func TestNode2PLCoarserThanXDGL(t *testing.T) {
	// The defining behavioural difference: removing //description under
	// Node2PL W-locks each product subtree, blocking a query reading the
	// sibling //price of the same product. Under XDGL the remove takes XT
	// only on the description path class (IX on ancestors), which coexists
	// with the query's ST on the price class (IS on ancestors).
	doc, g := docAndGuide(t)
	tbl := NewTable(g)
	o1, o2 := owner(1, 1, 0), owner(1, 2, 0)

	qr, _ := Node2PL{}.QueryRequests(doc, g, xpath.MustParse("//product/price"))
	if c := tbl.Acquire(o1, qr); c != nil {
		t.Fatal(c)
	}
	u := &xupdate.Update{Kind: xupdate.Remove, Target: "//description"}
	ur, _ := Node2PL{}.UpdateRequests(doc, g, u)
	if c := tbl.Acquire(o2, ur); len(c) == 0 {
		t.Fatal("Node2PL: remove should block on sibling query (W on shared subtree)")
	}

	// Same workload under XDGL proceeds concurrently.
	tbl2 := NewTable(g)
	qr2, _ := XDGL{}.QueryRequests(doc, g, xpath.MustParse("//product/price"))
	if c := tbl2.Acquire(o1, qr2); c != nil {
		t.Fatal(c)
	}
	ur2, _ := XDGL{}.UpdateRequests(doc, g, u)
	if c := tbl2.Acquire(o2, ur2); c != nil {
		t.Fatalf("XDGL: disjoint remove should not block: %v", c)
	}
}

func TestNode2PLFinerForPointUpdates(t *testing.T) {
	// Complementary behaviour the paper attributes to XDGL's summary
	// granularity: a change to one product's price is, under XDGL, a
	// conflict with readers of any price (one DataGuide class), while
	// Node2PL only blocks readers of that specific product subtree.
	doc, g := docAndGuide(t)
	o1, o2 := owner(1, 1, 0), owner(1, 2, 0)

	tbl := NewTable(g)
	u := &xupdate.Update{Kind: xupdate.Change, Target: "//product[id='4']/price", Value: "1"}
	ur, _ := Node2PL{}.UpdateRequests(doc, g, u)
	if c := tbl.Acquire(o1, ur); c != nil {
		t.Fatal(c)
	}
	qr, _ := Node2PL{}.QueryRequests(doc, g, xpath.MustParse("//product[id='14']/price"))
	if c := tbl.Acquire(o2, qr); c != nil {
		t.Fatalf("Node2PL: disjoint point read should pass: %v", c)
	}
}

func TestDocLock(t *testing.T) {
	doc, g := docAndGuide(t)
	tbl := NewTable(g)
	o1, o2 := owner(1, 1, 0), owner(1, 2, 0)
	qr, err := DocLock{}.QueryRequests(doc, g, xpath.MustParse("//price"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr) != 1 || qr[0].DocNode != doc.Root || qr[0].Mode != R {
		t.Fatalf("DocLock query = %v", qr)
	}
	if c := tbl.Acquire(o1, qr); c != nil {
		t.Fatal(c)
	}
	u := &xupdate.Update{Kind: xupdate.Change, Target: "//description", Value: "v"}
	ur, err := DocLock{}.UpdateRequests(doc, g, u)
	if err != nil {
		t.Fatal(err)
	}
	if c := tbl.Acquire(o2, ur); len(c) != 1 {
		t.Fatal("DocLock: any update must block on any query")
	}
}

func TestProtocolsRejectBadUpdates(t *testing.T) {
	doc, g := docAndGuide(t)
	bad := &xupdate.Update{Kind: xupdate.Kind(42), Target: "/products"}
	if _, err := (XDGL{}).UpdateRequests(doc, g, bad); err == nil {
		t.Fatal("XDGL accepted unknown kind")
	}
	if _, err := (Node2PL{}).UpdateRequests(doc, g, bad); err == nil {
		t.Fatal("Node2PL accepted unknown kind")
	}
	badPath := &xupdate.Update{Kind: xupdate.Remove, Target: "nope"}
	if _, err := (XDGL{}).UpdateRequests(doc, g, badPath); err == nil {
		t.Fatal("XDGL accepted bad path")
	}
	if _, err := (DocLock{}).UpdateRequests(doc, g, badPath); err == nil {
		t.Fatal("DocLock accepted bad path")
	}
	if _, err := (Node2PL{}).UpdateRequests(doc, g, badPath); err == nil {
		t.Fatal("Node2PL accepted bad path")
	}
}

// Multi-granularity law: whenever XDGL grants a non-intention lock on a
// node, each ancestor holds a matching intention lock.
func TestXDGLIntentionInvariant(t *testing.T) {
	doc, g := docAndGuide(t)
	queries := []string{"//price", "/products/product", "//product[id='4']/description"}
	updates := []*xupdate.Update{
		{Kind: xupdate.Change, Target: "//price", Value: "0"},
		{Kind: xupdate.Remove, Target: "//product[id='4']"},
		{Kind: xupdate.Insert, Target: "/products", Pos: xmltree.Into, New: &xupdate.NodeSpec{Name: "product"}},
	}
	check := func(reqs []Request) {
		byNode := map[*dataguide.Node]map[Mode]bool{}
		for _, r := range reqs {
			if byNode[r.Node] == nil {
				byNode[r.Node] = map[Mode]bool{}
			}
			byNode[r.Node][r.Mode] = true
		}
		for n, modes := range byNode {
			for m := range modes {
				if m == IS || m == IX {
					continue
				}
				wantAnc := IS
				if m == X || m == XT {
					wantAnc = IX
				}
				for _, a := range n.Ancestors() {
					if !byNode[a][wantAnc] && !byNode[a][IX] {
						t.Errorf("node %s mode %v: ancestor %s lacks %v", n.Path(), m, a.Path(), wantAnc)
					}
				}
			}
		}
	}
	for _, qs := range queries {
		reqs, err := XDGL{}.QueryRequests(doc, g, xpath.MustParse(qs))
		if err != nil {
			t.Fatal(err)
		}
		check(reqs)
	}
	for _, u := range updates {
		reqs, err := XDGL{}.UpdateRequests(doc, g, u)
		if err != nil {
			t.Fatal(err)
		}
		check(reqs)
	}
}
