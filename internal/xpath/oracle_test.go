package xpath

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/xmltree"
)

// oracleEval is the evaluator Eval replaced, kept verbatim as the
// differential oracle: a per-step seen map and a whole-document walk to
// re-sort every result. Eval must return the same *Node sequence.
func oracleEval(q *Query, doc *xmltree.Document) []*xmltree.Node {
	// The context of the first step is a virtual document node whose only
	// child is the root element.
	ctx := []*xmltree.Node{}
	for i, step := range q.Steps {
		var next []*xmltree.Node
		seen := make(map[xmltree.NodeID]bool)
		add := func(n *xmltree.Node) {
			if !seen[n.ID] {
				seen[n.ID] = true
				next = append(next, n)
			}
		}
		if i == 0 {
			switch step.Axis {
			case Child:
				if nameMatches(step.Name, doc.Root.Name) {
					add(doc.Root)
				}
			case Descendant:
				doc.Walk(func(n *xmltree.Node) bool {
					if nameMatches(step.Name, n.Name) {
						add(n)
					}
					return true
				})
			}
		} else {
			for _, c := range ctx {
				switch step.Axis {
				case Child:
					for _, child := range c.Children {
						if nameMatches(step.Name, child.Name) {
							add(child)
						}
					}
				case Descendant:
					// '//name' from context c expands to
					// descendant-or-self::node()/child::name, which is
					// exactly the descendants of c with a matching name.
					for _, d := range c.Descendants() {
						if nameMatches(step.Name, d.Name) {
							add(d)
						}
					}
				}
			}
		}
		next = oracleApplyPreds(step.Preds, next)
		ctx = next
		if len(ctx) == 0 {
			return nil
		}
	}
	if q.Attr != "" {
		var out []*xmltree.Node
		for _, n := range ctx {
			if _, ok := n.Attr(q.Attr); ok {
				out = append(out, n)
			}
		}
		return oracleSortDocOrder(out)
	}
	return oracleSortDocOrder(ctx)
}

func oracleApplyPreds(preds []Pred, nodes []*xmltree.Node) []*xmltree.Node {
	for _, p := range preds {
		var kept []*xmltree.Node
		for i, n := range nodes {
			if p.Match(n, i) {
				kept = append(kept, n)
			}
		}
		nodes = kept
		if len(nodes) == 0 {
			return nil
		}
	}
	return nodes
}

// oracleSortDocOrder is the walk-based sort SortDocOrder replaced, verbatim.
func oracleSortDocOrder(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) <= 1 {
		return nodes
	}
	rank := make(map[xmltree.NodeID]int, len(nodes))
	want := make(map[xmltree.NodeID]bool, len(nodes))
	for _, n := range nodes {
		want[n.ID] = true
	}
	// Find the document by walking up from any node.
	root := nodes[0]
	for root.Parent != nil {
		root = root.Parent
	}
	i := 0
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if want[n.ID] {
			rank[n.ID] = i
			i++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	out := append([]*xmltree.Node(nil), nodes...)
	for j := 1; j < len(out); j++ {
		for k := j; k > 0 && rank[out[k].ID] < rank[out[k-1].ID]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// nestedXML repeats its labels at every depth, so //a//a, a child step from
// nested contexts and positional predicates over interleaved sequences all
// occur.
const nestedXML = `<a k="1">
  <a k="2"><b>3</b><a><b>1</b><c k="1">2</c></a><b>2</b></a>
  <b k="3"><a k="1"><b>5</b><a k="2"><b>4</b></a></a><c>1</c></b>
  <c><b>2</b></c>
  <a><a><a k="3"><b>9</b></a></a><b>7</b></a>
</a>`

// assertSameAsOracle fails unless Eval returns exactly the oracle's nodes:
// on the document alone, with the summary of its label paths attached the
// way its DataGuide publishes one (plus a path the tree does not have, as a
// guide keeps paths the tree lost), and with a summary that does not know
// its root.
func assertSameAsOracle(t *testing.T, doc *xmltree.Document, q *Query) {
	t.Helper()
	want := oracleEval(q, doc)
	defer func() { doc.Paths = nil }()
	foreign := &Summary{Child: map[string]*Summary{"zz": {}}, Below: map[string]bool{"zz": true}}
	for _, sum := range []*Summary{nil, summarize(doc), foreign} {
		doc.Paths = nil
		if sum != nil {
			doc.Paths = new(atomic.Value)
			doc.Paths.Store(sum)
		}
		if got := Eval(q, doc); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s on %s (summary %v):\n got %s\nwant %s", q, doc, sum != nil, describe(got), describe(want))
		}
	}
}

// summarize builds the summary of doc's label paths the way its DataGuide
// would, plus a spare path "spare" below the root.
func summarize(doc *xmltree.Document) *Summary {
	top := &Summary{Child: map[string]*Summary{}, Below: map[string]bool{}}
	var add func(s *Summary, n *xmltree.Node)
	add = func(s *Summary, n *xmltree.Node) {
		c := s.Child[n.Name]
		if c == nil {
			c = &Summary{Child: map[string]*Summary{}, Below: map[string]bool{}}
			s.Child[n.Name] = c
		}
		for _, k := range n.Children {
			add(c, k)
		}
		s.Below[n.Name] = true
		for l := range c.Below {
			s.Below[l] = true
		}
	}
	add(top, doc.Root)
	top.Child[doc.Root.Name].Child["spare"] = &Summary{}
	top.Child[doc.Root.Name].Below["spare"], top.Below["spare"] = true, true
	return top
}

func describe(nodes []*xmltree.Node) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = fmt.Sprintf("%s#%d", n.Name, n.ID)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// spanXML has a position count that crosses from one context into the next
// (the first b holds two c) and a chain of a nested in a.
const spanXML = `<a>
  <b><c k="1">1</c><c k="2">2</c></b>
  <b><c k="1">3</c><c k="1">4</c><a><a><c>5</c></a></a></b>
  <a><c k="2">6</c></a>
</a>`

func TestEvalMatchesOracleTable(t *testing.T) {
	for _, tc := range []struct {
		xml     string
		queries []string
	}{
		{nestedXML, []string{
			"/a", "/b", "/a/a", "/a/*", "/a/*/b", "//a", "//b", "//*",
			"//a//a", "//a//b", "//a/a", "//a/b", "//a/*/b", "//a//a/b",
			"//a/a//b", "//*//*", "//a[2]", "//a/b[1]", "//a/b[2]", "//a//b[3]",
			"//a[@k='1']//b", "//a[@k>'1']/a", "//a[b='2']", "//a[b>'1']//c",
			"//b[text()<'4']", "//a//a/@k", "//a/@k", "/a/a[1]/@k", "//a[1]//a[1]",
			"//a/a/a", "//a//a//a", "//c[@k!='3']", "//a[b='9']/b", "/a//a[2]/b",
			"/a/b//a/a", "//a[@k='2'][1]", "//x", "//a/x",
		}},
		// A step that ends at its k-th match: across contexts, past the last
		// match, before another predicate, after a value predicate (which
		// must not end the step) and down nested matches.
		{spanXML, []string{
			"/a/b/c[3]", "/a/b/c[4]", "/a/b/c[5]", "//c[3]", "//c[7]", "/a/b[3]",
			"/a/b/c[2][1]", "/a/b/c[2][2]", "//c[2][1]/@k",
			"/a/b/c[@k='1'][2]", "//c[@k='1'][3]", "//c[@k='2'][2]",
			"//a[2]", "//a[3]", "//a[4]/c", "//a[3]//c[1]", "//a//a[1]", "//a/a[1]/c",
		}},
	} {
		doc, err := xmltree.ParseString("table", tc.xml)
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range tc.queries {
			q, err := Parse(raw)
			if err != nil {
				t.Fatalf("parse %s: %v", raw, err)
			}
			assertSameAsOracle(t, doc, q)
		}
	}
}

// genDoc builds a document from bytes: each byte either opens a child of the
// current node (label, attribute and text drawn from its bits) or closes it.
func genDoc(b []byte) *xmltree.Document {
	doc := xmltree.NewDocument("gen", "a")
	cur := doc.Root
	for _, c := range b {
		if c&7 == 7 {
			if cur.Parent != nil {
				cur = cur.Parent
			}
			continue
		}
		n := doc.NewElement([]string{"a", "b", "c"}[int(c&7)%3])
		if c&8 != 0 {
			n.SetAttr("k", fmt.Sprint(int(c>>4)%4))
		}
		n.Text = fmt.Sprint(int(c>>5) % 5)
		if err := doc.AttachChildAt(cur, n, len(cur.Children)); err != nil {
			panic(err)
		}
		if c&16 != 0 {
			cur = n
		}
	}
	return doc
}

// genQuery builds a query from bytes: one to four steps over the document's
// repeating labels, mixing both axes, '*', positional predicates (small ones
// and ones past most steps' match counts), value predicates and a trailing
// /@k.
func genQuery(b []byte) *Query {
	i := 0
	next := func(n int) int {
		if i >= len(b) {
			return 0
		}
		i++
		return int(b[i-1]) % n
	}
	var sb strings.Builder
	for range next(4) + 1 {
		sb.WriteString([]string{"/", "//"}[next(2)])
		sb.WriteString([]string{"a", "b", "c", "*"}[next(4)])
		for range next(3) {
			switch next(5) {
			case 0:
				fmt.Fprintf(&sb, "[%d]", next(3)+1)
			case 1:
				// Far enough to run past the end of a step's matches.
				fmt.Fprintf(&sb, "[%d]", next(16)+1)
			case 2:
				fmt.Fprintf(&sb, "[@k%s'%d']", []string{"=", "!=", ">"}[next(3)], next(4))
			case 3:
				fmt.Fprintf(&sb, "[b%s'%d']", []string{"=", "<", ">="}[next(3)], next(5))
			case 4:
				fmt.Fprintf(&sb, "[text()%s'%d']", []string{"=", "<="}[next(2)], next(5))
			}
		}
	}
	if next(4) == 0 {
		sb.WriteString("/@k")
	}
	return MustParse(sb.String())
}

// TestEvalMatchesOracleRandom runs the differential over seeded random
// (document, query) pairs.
func TestEvalMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for range 3000 {
		doc := genDoc(buf(rng.Intn(60)))
		for range 4 {
			assertSameAsOracle(t, doc, genQuery(buf(16)))
		}
	}
}

// TestSortDocOrderMatchesOracle: any shuffled subset of a document sorts to
// the walk-based order.
func TestSortDocOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for range 500 {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		doc := genDoc(b)
		var all []*xmltree.Node
		doc.Walk(func(n *xmltree.Node) bool { all = append(all, n); return true })
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		sub := all[:rng.Intn(len(all)+1)]
		if got, want := SortDocOrder(sub), oracleSortDocOrder(sub); !slices.Equal(got, want) {
			t.Fatalf("SortDocOrder on %s:\n got %s\nwant %s", doc, describe(got), describe(want))
		}
	}
}

func FuzzEvalDocOrder(f *testing.F) {
	f.Add([]byte{0x10, 0x18, 0x11, 0x01, 0x07, 0x02, 0x1a, 0x10, 0x00}, []byte{3, 1, 0, 1, 1, 0, 2})
	f.Add([]byte{0x18, 0x18, 0x18, 0x07, 0x09, 0x07, 0x11, 0x02}, []byte{2, 1, 0, 0, 1, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, docBytes, queryBytes []byte) {
		if len(docBytes) > 512 {
			docBytes = docBytes[:512]
		}
		assertSameAsOracle(t, genDoc(docBytes), genQuery(queryBytes))
	})
}
