package dataguide_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// script hands out small numbers drawn from fuzz or random bytes; an
// exhausted script returns zeros, so every input decodes to something.
type script struct {
	b []byte
	i int
}

func (s *script) next(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}

func (s *script) done() bool { return s.i >= len(s.b) }

// labels are the element names documents, inserts and renames draw from;
// x, y and z never occur in a generated document, so inserting or renaming
// to them, or moving a subtree, creates label paths the guide did not have.
var labels = []string{"a", "b", "c", "x", "y", "z"}

// genTree builds a document of up to 40 elements over a, b and c.
func genTree(s *script) *xmltree.Document {
	doc := xmltree.NewDocument("g", "r")
	nodes := []*xmltree.Node{doc.Root}
	for range s.next(40) {
		n := doc.NewElement(labels[s.next(3)])
		n.Text = fmt.Sprint(s.next(3))
		if err := doc.AttachAt(nodes[s.next(len(nodes))], n, xmltree.Into); err != nil {
			panic(err)
		}
		nodes = append(nodes, n)
	}
	return doc
}

// pathOf is an absolute path selecting exactly n: one child step per level,
// each with n's position among the same-named siblings.
func pathOf(n *xmltree.Node) string {
	if n.Parent == nil {
		return "/" + n.Name
	}
	pos := 0
	for _, c := range n.Parent.Children {
		if c.Name == n.Name {
			pos++
		}
		if c == n {
			break
		}
	}
	return fmt.Sprintf("%s/%s[%d]", pathOf(n.Parent), n.Name, pos)
}

// genUpdate draws one update on a random element: an insert of a one- or
// two-level subtree, a rename, a transpose, a remove or a text change.
func genUpdate(s *script, doc *xmltree.Document) *xupdate.Update {
	var nodes []*xmltree.Node
	doc.Walk(func(n *xmltree.Node) bool { nodes = append(nodes, n); return true })
	pick := func() *xmltree.Node { return nodes[s.next(len(nodes))] }
	switch s.next(5) {
	case 0:
		spec := &xupdate.NodeSpec{Name: labels[s.next(len(labels))], Text: "1"}
		if s.next(2) == 0 {
			spec.Children = []*xupdate.NodeSpec{{Name: labels[s.next(len(labels))], Text: "2"}}
		}
		pos := []xmltree.Pos{xmltree.Into, xmltree.Before, xmltree.After}[s.next(3)]
		return &xupdate.Update{Kind: xupdate.Insert, Target: pathOf(pick()), Pos: pos, New: spec}
	case 1:
		return &xupdate.Update{Kind: xupdate.Rename, Target: pathOf(pick()), NewName: labels[s.next(len(labels))]}
	case 2:
		return &xupdate.Update{Kind: xupdate.Transpose, Target: pathOf(pick()), Target2: pathOf(pick())}
	case 3:
		return &xupdate.Update{Kind: xupdate.Remove, Target: pathOf(pick())}
	default:
		return &xupdate.Update{Kind: xupdate.Change, Target: pathOf(pick()), Value: fmt.Sprint(s.next(3))}
	}
}

// genQuery draws a query of one to four steps over the labels and '*', both
// axes, positional and child-value predicates and a trailing text() test.
func genQuery(s *script) *xpath.Query {
	var b strings.Builder
	for range s.next(4) + 1 {
		b.WriteString([]string{"/", "//", "//"}[s.next(3)])
		b.WriteString(append([]string{"*", "r"}, labels...)[s.next(len(labels)+2)])
		switch s.next(4) {
		case 1:
			fmt.Fprintf(&b, "[%d]", s.next(3)+1)
		case 2:
			fmt.Fprintf(&b, "[%s='%d']", labels[s.next(len(labels))], s.next(3))
		}
	}
	if s.next(4) == 0 {
		fmt.Fprintf(&b, "[text()='%d']", s.next(3))
	}
	return xpath.MustParse(b.String())
}

func ids(nodes []*xmltree.Node) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

// checkGuidedEval decodes a document, a sequence of updates applied through
// the document's guide, and queries from b. After every update each query
// must select the same node sequence on the guided document, on a snapshot
// of it, and on a snapshot pinned before any update as on unguided clones
// of the same trees: pruning descendant steps on the label-path summary
// never changes a result, and the newest summary covers older trees.
func checkGuidedEval(t *testing.T, b []byte) {
	s := &script{b: b}
	doc := genTree(s)
	g := dataguide.Build(doc)
	pinned, pinnedPlain := doc.Snapshot(), doc.Clone()
	for step := 0; step < 12 && !s.done(); step++ {
		u := genUpdate(s, doc)
		if _, _, err := xupdate.Apply(u, doc, g); err != nil {
			continue // transpose of nested nodes, insert beside the root: rolled back
		}
		plain := doc.Clone()
		if plain.Paths != nil {
			t.Fatal("Clone shares the guide's summary cell")
		}
		snap := doc.Snapshot()
		for range 4 {
			q := genQuery(s)
			want := ids(xpath.Eval(q, plain))
			for _, tc := range []struct {
				name string
				got  []*xmltree.Node
			}{
				{"guided", xpath.Eval(q, doc)},
				{"snapshot", xpath.Eval(q, snap)},
			} {
				if got := ids(tc.got); !slices.Equal(got, want) {
					t.Fatalf("after %s: %s on the %s tree = %v, unguided %v\n%s", u, q, tc.name, got, want, doc)
				}
			}
			if got, want := ids(xpath.Eval(q, pinned)), ids(xpath.Eval(q, pinnedPlain)); !slices.Equal(got, want) {
				t.Fatalf("after %s: %s on the pinned tree = %v, unguided %v\n%s", u, q, got, want, pinnedPlain)
			}
		}
	}
}

func TestGuidedEvalMatchesUnguided(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		b := make([]byte, 40+rng.Intn(160))
		rng.Read(b)
		checkGuidedEval(t, b)
	}
}

func FuzzGuidedEval(f *testing.F) {
	f.Add([]byte{30, 0, 0, 1, 1, 0, 2, 0, 0, 3, 1, 1, 0, 4, 0, 2, 1, 3, 0, 1, 5, 1, 2, 3, 1, 1, 0, 0})
	f.Add([]byte{12, 1, 0, 0, 0, 1, 1, 2, 1, 0, 1, 3, 2, 4, 1, 3, 2, 3, 5, 0, 1, 2, 2, 1, 1, 7, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1024 {
			b = b[:1024]
		}
		checkGuidedEval(t, b)
	})
}
