package xpath

import "repro/internal/xmltree"

// Summary is one label path of an immutable summary of a document's label
// paths, which the document's DataGuide publishes through Document.Paths
// starting from the virtual path above the root element. Child holds the
// paths one label below and Below every label that occurs anywhere below.
// Eval walks a descendant step in lockstep with the summary and skips every
// subtree whose path has no element of the step's name below it, so
// '//name' pays for the sections that can match, not for the document.
type Summary struct {
	Child map[string]*Summary
	Below map[string]bool
}

// child returns the path one label below s, or nil when s is nil or does not
// know that path.
func (s *Summary) child(label string) *Summary {
	if s == nil {
		return nil
	}
	return s.Child[label]
}

// at returns the path of context node n in the summary s of its document, or
// nil when s is nil or does not know n's path.
func (s *Summary) at(n *xmltree.Node) *Summary {
	switch {
	case n.Name == "": // Eval's virtual node: elements are never nameless
		return s
	case n.Parent == nil: // the root element
		return s.child(n.Name)
	}
	return s.at(n.Parent).child(n.Name)
}
