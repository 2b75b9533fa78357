package xpath

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

const storeXML = `
<products>
  <product id="prod1"><id>4</id><description>Mouse</description><price>10.30</price></product>
  <product id="prod2"><id>14</id><description>Keyboard</description><price>9.90</price></product>
  <product id="prod3"><id>32</id><description>Monitor</description><price>99.00</price></product>
  <promo>
    <product id="prod4"><id>77</id><description>Cable</description><price>1.10</price></product>
  </promo>
</products>`

func storeDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString("d2", storeXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func evalTexts(t *testing.T, doc *xmltree.Document, query string) []string {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	return EvalStrings(q, doc)
}

func TestParseValid(t *testing.T) {
	cases := []string{
		"/products",
		"/products/product",
		"/products/product/id",
		"//product",
		"//product[id='4']",
		"/products/product[@id='prod1']",
		"/products/product[2]",
		"/products/*",
		"//product/description",
		"/products/product[price='10.30']/description",
		"/products/product[text()='x']",
		"/products/product/@id",
		"//product[@id!='prod1']",
		"/products/product[id=4]",
	}
	for _, c := range cases {
		q, err := Parse(c)
		if err != nil {
			t.Errorf("Parse(%q): %v", c, err)
			continue
		}
		// Canonical form must reparse to an equivalent query.
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse %q (from %q): %v", q.String(), c, err)
			continue
		}
		if q.String() != q2.String() {
			t.Errorf("canonical form unstable: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []string{
		"",
		"products",         // must be absolute
		"/",                // no step
		"/products/",       // dangling slash
		"/products[",       // unterminated predicate
		"/products[id=]",   // missing literal
		"/products[id'4']", // missing operator
		"/products[0]",     // positions are 1-based
		"/products['a'']",  // junk predicate
		"/products/product[@id='x'",
		"/p/@",   // missing attribute name
		"//@id",  // attribute needs '/' axis
		"/@id",   // attribute selection with no preceding step
		"/a/b!c", // stray '!'
		"/a[x='unterminated]",
		"/a]b",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q): expected error", c)
		}
	}
}

func TestEvalChildAxis(t *testing.T) {
	doc := storeDoc(t)
	got := evalTexts(t, doc, "/products/product/id")
	want := []string{"4", "14", "32"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalDescendantAxis(t *testing.T) {
	doc := storeDoc(t)
	got := evalTexts(t, doc, "//product/id")
	want := []string{"4", "14", "32", "77"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Descendant in the middle of a path.
	got = evalTexts(t, doc, "/products//product/description")
	want = []string{"Mouse", "Keyboard", "Monitor", "Cable"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("middle //: got %v, want %v", got, want)
	}
}

func TestEvalWildcard(t *testing.T) {
	doc := storeDoc(t)
	q := MustParse("/products/*")
	nodes := Eval(q, doc)
	if len(nodes) != 4 {
		t.Fatalf("wildcard matched %d nodes, want 4", len(nodes))
	}
}

func TestEvalChildPredicate(t *testing.T) {
	doc := storeDoc(t)
	got := evalTexts(t, doc, "//product[id='14']/description")
	if len(got) != 1 || got[0] != "Keyboard" {
		t.Fatalf("got %v, want [Keyboard]", got)
	}
	got = evalTexts(t, doc, "//product[id!='14']/description")
	if strings.Join(got, ",") != "Mouse,Monitor,Cable" {
		t.Fatalf("!=: got %v", got)
	}
}

func TestEvalAttrPredicate(t *testing.T) {
	doc := storeDoc(t)
	got := evalTexts(t, doc, "/products/product[@id='prod2']/price")
	if len(got) != 1 || got[0] != "9.90" {
		t.Fatalf("got %v, want [9.90]", got)
	}
	if got := evalTexts(t, doc, "/products/product[@missing='x']"); len(got) != 0 {
		t.Fatalf("missing attr matched: %v", got)
	}
}

func TestEvalPositionPredicate(t *testing.T) {
	doc := storeDoc(t)
	got := evalTexts(t, doc, "/products/product[2]/description")
	if len(got) != 1 || got[0] != "Keyboard" {
		t.Fatalf("got %v, want [Keyboard]", got)
	}
	if got := evalTexts(t, doc, "/products/product[9]"); len(got) != 0 {
		t.Fatalf("out-of-range position matched: %v", got)
	}
}

// TestPositionalStepCostsItsPosition: a step whose first predicate is [k]
// ends at its k-th match, so a point read allocates the same whether the
// section holds a hundred siblings or ten thousand.
func TestPositionalStepCostsItsPosition(t *testing.T) {
	wide := func(n int) *xmltree.Document {
		doc := xmltree.NewDocument("wide", "r")
		for i := range n {
			c, x := doc.NewElement("c"), doc.NewElement("x")
			if err := doc.AttachChildAt(doc.Root, c, i); err != nil {
				t.Fatal(err)
			}
			if err := doc.AttachChildAt(c, x, 0); err != nil {
				t.Fatal(err)
			}
		}
		return doc
	}
	small, large := wide(100), wide(10_000)
	for _, raw := range []string{"/r/c[3]/x", "//c[3]/x"} {
		q := MustParse(raw)
		allocs := func(doc *xmltree.Document) float64 {
			return testing.AllocsPerRun(50, func() {
				if got := Eval(q, doc); len(got) != 1 {
					t.Fatalf("%s: %d matches, want 1", raw, len(got))
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s: %.0f allocs at 100 children, %.0f at 10,000", raw, a, b)
		}
	}
}

func TestEvalAttrSelection(t *testing.T) {
	doc := storeDoc(t)
	got := evalTexts(t, doc, "/products/product/@id")
	want := []string{"prod1", "prod2", "prod3"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestEvalTextPredicate(t *testing.T) {
	doc, err := xmltree.ParseString("d", `<r><x>alpha</x><x>beta</x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	got := evalTexts(t, doc, "/r/x[text()='beta']")
	if len(got) != 1 || got[0] != "beta" {
		t.Fatalf("got %v, want [beta]", got)
	}
}

func TestEvalRootMismatch(t *testing.T) {
	doc := storeDoc(t)
	if got := Eval(MustParse("/people"), doc); got != nil {
		t.Fatalf("root mismatch matched: %v", got)
	}
}

func TestEvalNoDuplicates(t *testing.T) {
	// //product via // on nested contexts must not duplicate the nested one.
	doc := storeDoc(t)
	q := MustParse("//product")
	nodes := Eval(q, doc)
	seen := map[xmltree.NodeID]bool{}
	for _, n := range nodes {
		if seen[n.ID] {
			t.Fatalf("duplicate node %d in result", n.ID)
		}
		seen[n.ID] = true
	}
	if len(nodes) != 4 {
		t.Fatalf("//product matched %d, want 4", len(nodes))
	}
}

func TestEvalDocumentOrder(t *testing.T) {
	doc := storeDoc(t)
	nodes := Eval(MustParse("//id"), doc)
	var last int
	rankOf := func(target *xmltree.Node) int {
		i, found := 0, -1
		doc.Walk(func(n *xmltree.Node) bool {
			if n == target {
				found = i
			}
			i++
			return true
		})
		return found
	}
	for i, n := range nodes {
		r := rankOf(n)
		if i > 0 && r < last {
			t.Fatalf("results out of document order at %d", i)
		}
		last = r
	}
}

// TestPropertyEvalSubsetOfWalk: every node returned by any query must be an
// attached node of the document with a matching final name test.
func TestPropertyEvalSubsetOfWalk(t *testing.T) {
	doc := storeDoc(t)
	queries := []string{"//product", "/products/product", "//id", "/products/*", "//product[id='4']"}
	f := func(pick uint8) bool {
		q := MustParse(queries[int(pick)%len(queries)])
		for _, n := range Eval(q, doc) {
			if !doc.Attached(n) {
				return false
			}
			last := q.Steps[len(q.Steps)-1]
			if last.Name != "*" && n.Name != last.Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheSharesParsedQueries(t *testing.T) {
	c := NewCache(2)
	q1, err := c.Get("//product/id")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Get("//product/id")
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("cache did not share the parsed query")
	}
	if _, err := c.Get("][bad"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	// Overflow flushes rather than grows.
	if _, err := c.Get("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/b"); err != nil {
		t.Fatal(err)
	}
	if c.Len() > 2 {
		t.Fatalf("cache exceeded its bound: %d", c.Len())
	}
}

func TestStructureKeyIgnoresPredicateValues(t *testing.T) {
	a := MustParse("//person[id='7']/name")
	b := MustParse("//person[id='9']/name")
	if a.StructureKey() != b.StructureKey() {
		t.Fatalf("value-only difference changed the key: %q vs %q", a.StructureKey(), b.StructureKey())
	}
	c := MustParse("//person[age='7']/name")
	if a.StructureKey() == c.StructureKey() {
		t.Fatal("different predicate child collapsed into one key")
	}
	d := MustParse("//person/name")
	if a.StructureKey() == d.StructureKey() {
		t.Fatal("dropping the predicate did not change the key")
	}
	if MustParse("/a/b").StructureKey() == MustParse("/a//b").StructureKey() {
		t.Fatal("axis ignored by the key")
	}
}
