// Package xmltree implements the mutable, ordered XML document model that
// DTX manipulates in main memory. Documents are trees of element nodes with
// attributes and character data. Every node carries a stable identifier so
// that lock extents, undo logs and DataGuide extents can refer to nodes
// across mutations.
//
// The model intentionally mirrors what the DTX paper needs and no more:
// element structure, attributes, text content and document order. Comments,
// processing instructions and namespaces are out of scope for the protocol
// and are dropped at parse time.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeID identifies a node uniquely within one Document. IDs are never
// reused, even after the node is detached, so historical references in undo
// logs stay unambiguous.
type NodeID int64

// InvalidID is returned by lookups that fail.
const InvalidID NodeID = 0

// Attr is a single name="value" attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is one element of an XML document tree. The zero value is not usable;
// create nodes through Document.NewElement so they receive an ID.
type Node struct {
	ID       NodeID
	Name     string
	Text     string // concatenated character data directly under this element
	Attrs    []Attr
	Parent   *Node
	Children []*Node

	doc *Document
}

// Document owns a tree of nodes and allocates their IDs.
type Document struct {
	Name string
	Root *Node

	nodes  map[NodeID]*Node
	nextID NodeID
	// lastWriteSize remembers the size of the previous serialization so the
	// next WriteTo pre-sizes its buffer (Snapshot hands it down, so each
	// checkpoint of a document starts from the size of the one before).
	// Atomic so the otherwise read-only WriteTo stays safe to call on a
	// document that another goroutine is serializing.
	lastWriteSize atomic.Int64
}

// NewDocument creates an empty document with a root element named rootName.
func NewDocument(name, rootName string) *Document {
	d := &Document{Name: name, nodes: make(map[NodeID]*Node), nextID: 1}
	d.Root = d.NewElement(rootName)
	return d
}

// NewElement allocates a detached element node belonging to this document.
func (d *Document) NewElement(name string) *Node {
	n := &Node{ID: d.nextID, Name: name, doc: d}
	d.nextID++
	d.nodes[n.ID] = n
	return n
}

// Node returns the node with the given ID, or nil if it was never allocated
// or has been detached from the tree.
func (d *Document) Node(id NodeID) *Node {
	n := d.nodes[id]
	if n == nil {
		return nil
	}
	// Detached subtrees stay in the map so undo can reattach them; callers
	// that need "live" nodes only should check Attached.
	return n
}

// Attached reports whether n is currently reachable from the document root.
func (d *Document) Attached(n *Node) bool {
	for cur := n; cur != nil; cur = cur.Parent {
		if cur == d.Root {
			return true
		}
	}
	return false
}

// Len returns the number of nodes reachable from the root.
func (d *Document) Len() int {
	count := 0
	d.Walk(func(*Node) bool { count++; return true })
	return count
}

// ByteSize returns an estimate of the serialized size of the document in
// bytes. The estimate counts tags, attributes and text, and is what the
// fragmentation and base-size experiments use as their "MB" dial.
func (d *Document) ByteSize() int {
	size := 0
	d.Walk(func(n *Node) bool {
		size += 2*len(n.Name) + 5 // <name></name>
		for _, a := range n.Attrs {
			size += len(a.Name) + len(a.Value) + 4
		}
		size += len(n.Text)
		return true
	})
	return size
}

// Walk visits every attached node in document order. Return false from fn to
// stop the walk early.
func (d *Document) Walk(fn func(*Node) bool) {
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, c := range n.Children {
			if !walk(c) {
				return false
			}
		}
		return true
	}
	if d.Root != nil {
		walk(d.Root)
	}
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces the named attribute and returns the previous
// value (empty if absent) for undo logging.
func (n *Node) SetAttr(name, value string) (prev string, existed bool) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return a.Value, true
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return "", false
}

// RemoveAttr deletes the named attribute, returning its previous value.
func (n *Node) RemoveAttr(name string) (prev string, existed bool) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return a.Value, true
		}
	}
	return "", false
}

// Index returns n's position among its parent's children, or -1 for the
// root or a detached node.
func (n *Node) Index() int {
	if n.Parent == nil {
		return -1
	}
	for i, c := range n.Parent.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// LabelPath returns the slash-separated element-name path from the root to
// n, e.g. "/site/people/person". This is the key the DataGuide summarises.
func (n *Node) LabelPath() string {
	var parts []string
	for cur := n; cur != nil; cur = cur.Parent {
		parts = append(parts, cur.Name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// PathSegments returns the element names from root to n, root first.
func (n *Node) PathSegments() []string {
	var parts []string
	for cur := n; cur != nil; cur = cur.Parent {
		parts = append(parts, cur.Name)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return parts
}

// Ancestors returns the chain of ancestors of n from parent up to the root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// Descendants appends every node strictly below n in document order.
func (n *Node) Descendants() []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		for _, c := range m.Children {
			out = append(out, c)
			walk(c)
		}
	}
	walk(n)
	return out
}

// SubtreeSize counts n and all its descendants.
func (n *Node) SubtreeSize() int {
	size := 1
	for _, c := range n.Children {
		size += c.SubtreeSize()
	}
	return size
}

// Pos identifies an insertion position relative to a reference node.
type Pos int

// Insertion positions for AttachAt and the update language's insert.
const (
	Into   Pos = iota // as last child of the reference node
	Before            // as the sibling immediately before the reference node
	After             // as the sibling immediately after the reference node
)

// String returns the position keyword used by the update language.
func (p Pos) String() string {
	switch p {
	case Into:
		return "into"
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return fmt.Sprintf("Pos(%d)", int(p))
	}
}

// AttachAt attaches child relative to ref according to pos. The child must
// be detached and belong to the same document. It returns an error if the
// operation would detach the root or create a cycle.
func (d *Document) AttachAt(ref, child *Node, pos Pos) error {
	if child.doc != d || ref.doc != d {
		return fmt.Errorf("xmltree: attach across documents")
	}
	if child.Parent != nil {
		return fmt.Errorf("xmltree: node %d already attached", child.ID)
	}
	if child == d.Root {
		return fmt.Errorf("xmltree: cannot attach the root")
	}
	for cur := ref; cur != nil; cur = cur.Parent {
		if cur == child {
			return fmt.Errorf("xmltree: attach would create a cycle")
		}
	}
	switch pos {
	case Into:
		ref.Children = append(ref.Children, child)
		child.Parent = ref
	case Before, After:
		parent := ref.Parent
		if parent == nil {
			return fmt.Errorf("xmltree: cannot insert %s the root", pos)
		}
		idx := ref.Index()
		if pos == After {
			idx++
		}
		parent.Children = append(parent.Children, nil)
		copy(parent.Children[idx+1:], parent.Children[idx:])
		parent.Children[idx] = child
		child.Parent = parent
	default:
		return fmt.Errorf("xmltree: unknown position %v", pos)
	}
	return nil
}

// AttachChildAt inserts child at index idx of parent's children. Used by
// undo to restore removed subtrees at their original position.
func (d *Document) AttachChildAt(parent, child *Node, idx int) error {
	if child.Parent != nil {
		return fmt.Errorf("xmltree: node %d already attached", child.ID)
	}
	if idx < 0 || idx > len(parent.Children) {
		return fmt.Errorf("xmltree: index %d out of range [0,%d]", idx, len(parent.Children))
	}
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[idx+1:], parent.Children[idx:])
	parent.Children[idx] = child
	child.Parent = parent
	return nil
}

// Detach removes n (and its subtree) from its parent and returns the index
// it occupied, for undo. Detaching the root is an error.
func (d *Document) Detach(n *Node) (idx int, err error) {
	if n == d.Root {
		return 0, fmt.Errorf("xmltree: cannot detach the root")
	}
	parent := n.Parent
	if parent == nil {
		return 0, fmt.Errorf("xmltree: node %d is not attached", n.ID)
	}
	idx = n.Index()
	parent.Children = append(parent.Children[:idx], parent.Children[idx+1:]...)
	n.Parent = nil
	return idx, nil
}

// Transpose swaps the tree positions of a and b. Neither node may be an
// ancestor of the other, and neither may be the root.
func (d *Document) Transpose(a, b *Node) error {
	if a == b {
		return nil
	}
	if a == d.Root || b == d.Root {
		return fmt.Errorf("xmltree: cannot transpose the root")
	}
	for cur := a.Parent; cur != nil; cur = cur.Parent {
		if cur == b {
			return fmt.Errorf("xmltree: %d is a descendant of %d", a.ID, b.ID)
		}
	}
	for cur := b.Parent; cur != nil; cur = cur.Parent {
		if cur == a {
			return fmt.Errorf("xmltree: %d is a descendant of %d", b.ID, a.ID)
		}
	}
	pa, ia := a.Parent, a.Index()
	pb, ib := b.Parent, b.Index()
	pa.Children[ia], pb.Children[ib] = b, a
	a.Parent, b.Parent = pb, pa
	return nil
}

// Clone produces a deep copy of the document. Node IDs are preserved so that
// extents and lock references remain valid against the copy.
func (d *Document) Clone() *Document {
	nd := &Document{Name: d.Name, nodes: make(map[NodeID]*Node, len(d.nodes)), nextID: d.nextID}
	var cloneNode func(n *Node, parent *Node) *Node
	cloneNode = func(n *Node, parent *Node) *Node {
		cp := &Node{ID: n.ID, Name: n.Name, Text: n.Text, Parent: parent, doc: nd}
		if len(n.Attrs) > 0 {
			cp.Attrs = append([]Attr(nil), n.Attrs...)
		}
		nd.nodes[cp.ID] = cp
		for _, c := range n.Children {
			cp.Children = append(cp.Children, cloneNode(c, cp))
		}
		return cp
	}
	nd.Root = cloneNode(d.Root, nil)
	return nd
}

// Snapshot produces a read-only deep copy of the tree for off-lock
// serialization: the copy shares no mutable state with the original, but it
// does not support further mutation (it has no node index, so NewElement
// and ID lookups do not work on it). Unlike Clone it allocates the whole
// tree in a handful of arena blocks, so snapshotting a document on every
// commit does not flood the garbage collector with per-node allocations.
func (d *Document) Snapshot() *Document {
	nd := &Document{Name: d.Name, nextID: d.nextID}
	nd.lastWriteSize.Store(d.lastWriteSize.Load())
	// One counting walk (a few percent of the copy) sizes the arenas exactly:
	// the nodes, their child-pointer runs and their attribute runs each fill
	// one block that never reallocates, so interior pointers stay valid. Each
	// node's Children and Attrs are full-capacity slices of those blocks, so
	// they cannot grow into a neighbour's run.
	nodeCount, attrCount := 0, 0
	var count func(n *Node)
	count = func(n *Node) {
		nodeCount++
		attrCount += len(n.Attrs)
		for _, c := range n.Children {
			count(c)
		}
	}
	count(d.Root)
	nodes := make([]Node, 0, nodeCount)
	ptrs := make([]*Node, 0, nodeCount)
	attrs := make([]Attr, 0, attrCount)
	var clone func(n *Node, parent *Node) *Node
	clone = func(n *Node, parent *Node) *Node {
		nodes = append(nodes, Node{ID: n.ID, Name: n.Name, Text: n.Text, Parent: parent, doc: nd})
		cp := &nodes[len(nodes)-1]
		if k := len(n.Attrs); k > 0 {
			attrs = append(attrs, n.Attrs...)
			cp.Attrs = attrs[len(attrs)-k : len(attrs) : len(attrs)]
		}
		if k := len(n.Children); k > 0 {
			start := len(ptrs)
			ptrs = ptrs[:start+k]
			cp.Children = ptrs[start : start+k : start+k]
			for i, c := range n.Children {
				cp.Children[i] = clone(c, cp)
			}
		}
		return cp
	}
	nd.Root = clone(d.Root, nil)
	return nd
}

// Equal reports deep structural equality of two documents: same names,
// attributes (order-insensitive), text and child order. Node IDs are not
// compared, so a reparsed document can equal the original.
func Equal(a, b *Document) bool {
	return equalNode(a.Root, b.Root)
}

func equalNode(a, b *Node) bool {
	if a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	if len(a.Attrs) > 0 {
		as := append([]Attr(nil), a.Attrs...)
		bs := append([]Attr(nil), b.Attrs...)
		sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
		sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	for i := range a.Children {
		if !equalNode(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
