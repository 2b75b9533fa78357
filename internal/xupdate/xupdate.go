// Package xupdate implements the five-operation update language that XDGL
// defines for XML documents — insert, remove, transpose, rename and change —
// together with inverse-operation undo records. DTX uses the undo records to
// roll back aborted transactions and to undo operations that could not
// acquire locks at every participant site (Algorithm 1, lines 15–17).
package xupdate

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/dataguide"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Kind enumerates the update operations of the language.
type Kind int

// The five update operations of XDGL's update language.
const (
	Insert Kind = iota
	Remove
	Rename
	Change
	Transpose
)

// String returns the update language keyword.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Remove:
		return "remove"
	case Rename:
		return "rename"
	case Change:
		return "change"
	case Transpose:
		return "transpose"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeSpec describes a subtree to insert. It is pure data so it can travel
// through the wire codec to participant sites and into the journal.
type NodeSpec struct {
	Name     string
	Text     string
	Attrs    []xmltree.Attr
	Children []*NodeSpec
}

// Build materialises the spec as a detached subtree of doc.
func (s *NodeSpec) Build(doc *xmltree.Document) (*xmltree.Node, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("xupdate: node spec without a name")
	}
	n := doc.NewElement(s.Name)
	n.Text = s.Text
	if len(s.Attrs) > 0 {
		n.Attrs = append([]xmltree.Attr(nil), s.Attrs...)
	}
	for _, c := range s.Children {
		cn, err := c.Build(doc)
		if err != nil {
			return nil, err
		}
		if err := doc.AttachAt(n, cn, xmltree.Into); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Update is one update operation against a document. Target paths are kept
// as raw XPath text so the struct serialises as plain fields through the
// wire codec (the parsed forms are unexported and rebuilt on the receiving
// side).
type Update struct {
	Kind    Kind
	Target  string      // XPath selecting the node(s) the operation applies to
	Pos     xmltree.Pos // Insert: into / before / after the target
	New     *NodeSpec   // Insert: subtree to create
	NewName string      // Rename: replacement element name
	Value   string      // Change: new text value (or attribute value)
	Attr    string      // Change: when set, change this attribute, not text
	Target2 string      // Transpose: second path

	// tq / t2q hold the immutable pre-parsed forms of Target / Target2,
	// populated by Validate (or lazily on first use — a decoded Update
	// arrives without them). One Update fans out to several sites'
	// schedulers concurrently, so the slots are atomic; xpath.Query is
	// read-only after Parse, making the parsed value itself shareable.
	tq  atomic.Pointer[xpath.Query]
	t2q atomic.Pointer[xpath.Query]
}

// TargetQuery returns the parsed primary target path, parsing at most once
// per Update (Validate pre-parses; later calls are a pointer load).
func (u *Update) TargetQuery() (*xpath.Query, error) {
	return parseOnce(&u.tq, u.Target)
}

// Target2Query returns the parsed secondary path for Transpose.
func (u *Update) Target2Query() (*xpath.Query, error) {
	return parseOnce(&u.t2q, u.Target2)
}

// parseOnce returns the cached parse of raw, filling the slot on first use.
// Two goroutines racing the first call both parse; CompareAndSwap keeps one
// winner so every caller afterwards shares a single *xpath.Query.
func parseOnce(slot *atomic.Pointer[xpath.Query], raw string) (*xpath.Query, error) {
	if q := slot.Load(); q != nil {
		return q, nil
	}
	q, err := xpath.Parse(raw)
	if err != nil {
		return nil, err
	}
	if !slot.CompareAndSwap(nil, q) {
		return slot.Load(), nil
	}
	return q, nil
}

// String renders the update in the update-language surface syntax.
func (u *Update) String() string {
	switch u.Kind {
	case Insert:
		name := "?"
		if u.New != nil {
			name = u.New.Name
		}
		return fmt.Sprintf("insert <%s> %s %s", name, u.Pos, u.Target)
	case Remove:
		return fmt.Sprintf("remove %s", u.Target)
	case Rename:
		return fmt.Sprintf("rename %s to %s", u.Target, u.NewName)
	case Change:
		if u.Attr != "" {
			return fmt.Sprintf("change %s/@%s to %q", u.Target, u.Attr, u.Value)
		}
		return fmt.Sprintf("change %s to %q", u.Target, u.Value)
	case Transpose:
		return fmt.Sprintf("transpose %s and %s", u.Target, u.Target2)
	default:
		return "unknown update"
	}
}

// Validate checks the static shape of the update before execution.
func (u *Update) Validate() error {
	if _, err := u.TargetQuery(); err != nil {
		return err
	}
	switch u.Kind {
	case Insert:
		if u.New == nil {
			return fmt.Errorf("xupdate: insert without a node spec")
		}
		if u.New.Name == "" {
			return fmt.Errorf("xupdate: insert spec without a name")
		}
	case Rename:
		if u.NewName == "" {
			return fmt.Errorf("xupdate: rename without a new name")
		}
	case Transpose:
		if _, err := u.Target2Query(); err != nil {
			return err
		}
	case Remove, Change:
		// No extra fields required.
	default:
		return fmt.Errorf("xupdate: unknown kind %d", int(u.Kind))
	}
	return nil
}

// undoAction is a single inverse step. flip toggles the step's effect on the
// tree between applied and reverted and touches nothing else — no DataGuide,
// extent or value-index maintenance, no node allocated or renumbered — so a
// flip followed by a flip leaves the tree exactly as it was. undo is the
// reverting flip plus the guide maintenance that goes with it.
type undoAction interface {
	undo(doc *xmltree.Document, g *dataguide.DataGuide) error
	flip(doc *xmltree.Document) error
}

// UndoRec collects the inverse of one applied update.
type UndoRec struct {
	actions []undoAction
}

// Empty reports whether the update had no effect (no targets matched).
func (r *UndoRec) Empty() bool { return r == nil || len(r.actions) == 0 }

// Undo reverts the update on doc and guide. Safe to call once.
func (r *UndoRec) Undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	if r == nil {
		return nil
	}
	for i := len(r.actions) - 1; i >= 0; i-- {
		if err := r.actions[i].undo(doc, g); err != nil {
			return err
		}
	}
	r.actions = nil
	return nil
}

// Peel takes the update's effect off the tree without consuming the record
// and without touching the guide: the tree then reads as if the update had
// not run, which is how a committed snapshot is cut from a document that
// uncommitted writers are changing in place. Records are peeled newest-first
// and put back oldest-first with Restore before anything else looks at the
// document; a peeled-and-restored record undoes exactly as a fresh one.
func (r *UndoRec) Peel(doc *xmltree.Document) error {
	if r == nil {
		return nil
	}
	for i := len(r.actions) - 1; i >= 0; i-- {
		if err := r.actions[i].flip(doc); err != nil {
			return err
		}
	}
	return nil
}

// Restore puts a peeled update's effect back on the tree.
func (r *UndoRec) Restore(doc *xmltree.Document) error {
	if r == nil {
		return nil
	}
	for _, a := range r.actions {
		if err := a.flip(doc); err != nil {
			return err
		}
	}
	return nil
}

// placement is a subtree that is either attached or detached from a
// remembered position; flip moves it from the one state to the other.
type placement struct {
	node, parent *xmltree.Node
	idx          int
}

func (a *placement) flip(doc *xmltree.Document) (err error) {
	if a.node.Parent == nil {
		return doc.AttachChildAt(a.parent, a.node, a.idx)
	}
	a.parent = a.node.Parent
	a.idx, err = doc.Detach(a.node)
	return err
}

// undoInsert detaches an inserted subtree.
type undoInsert struct{ placement }

func (a *undoInsert) undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	g.RemoveSubtree(a.node)
	return a.flip(doc)
}

// undoRemove reattaches a removed subtree where it was.
type undoRemove struct{ placement }

func (a *undoRemove) undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	if err := a.flip(doc); err != nil {
		return err
	}
	return g.AddSubtree(a.node)
}

type undoRename struct {
	node  *xmltree.Node
	other string // the name the node does not carry right now
}

func (a *undoRename) flip(*xmltree.Document) error {
	a.node.Name, a.other = a.other, a.node.Name
	return nil
}

func (a *undoRename) undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	g.RemoveSubtree(a.node)
	_ = a.flip(doc)
	return g.AddSubtree(a.node)
}

type undoChangeText struct {
	node  *xmltree.Node
	other string // the text the node does not carry right now
}

func (a *undoChangeText) flip(*xmltree.Document) error {
	a.node.Text, a.other = a.other, a.node.Text
	return nil
}

func (a *undoChangeText) undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	old := a.node.Text
	_ = a.flip(doc)
	g.NoteTextChanged(a.node, old)
	return nil
}

// undoChangeAttr toggles one attribute between its two sides of the change —
// the value it carries now and other, or present and absent — and touches no
// other attribute of the node, so inverses of different attributes' changes
// revert in any order. An attribute the change added comes off and goes back
// at the index it sat at, which keeps attribute order across a flip pair.
type undoChangeAttr struct {
	node   *xmltree.Node
	attr   string
	other  string
	absent bool // on the other side the node has no such attribute
	idx    int  // where it sits among Attrs while detached by a flip
}

func (a *undoChangeAttr) flip(*xmltree.Document) error {
	attrs := a.node.Attrs
	i := slices.IndexFunc(attrs, func(at xmltree.Attr) bool { return at.Name == a.attr })
	switch {
	case i < 0: // absent now: put it back
		a.node.Attrs = slices.Insert(attrs, min(a.idx, len(attrs)), xmltree.Attr{Name: a.attr, Value: a.other})
		a.absent = true
	case a.absent:
		a.idx, a.other, a.absent = i, attrs[i].Value, false
		a.node.Attrs = slices.Delete(attrs, i, i+1)
	default:
		attrs[i].Value, a.other = a.other, attrs[i].Value
	}
	return nil
}

func (a *undoChangeAttr) undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	prev, existed := a.node.Attr(a.attr)
	_ = a.flip(doc)
	g.NoteAttrChanged(a.node, a.attr, prev, existed)
	return nil
}

type undoTranspose struct{ a, b *xmltree.Node }

func (a *undoTranspose) flip(doc *xmltree.Document) error {
	return doc.Transpose(a.a, a.b)
}

func (a *undoTranspose) undo(doc *xmltree.Document, g *dataguide.DataGuide) error {
	if err := a.flip(doc); err != nil {
		return err
	}
	if err := g.Move(a.a); err != nil {
		return err
	}
	return g.Move(a.b)
}

// Apply evaluates the update's target path(s) and applies the operation to
// every matched node, maintaining the DataGuide, and returns the undo
// record together with the affected target nodes. An update whose target
// matches nothing is a no-op with an empty undo record.
func Apply(u *Update, doc *xmltree.Document, g *dataguide.DataGuide) (*UndoRec, []*xmltree.Node, error) {
	if err := u.Validate(); err != nil {
		return nil, nil, err
	}
	q, err := u.TargetQuery()
	if err != nil {
		return nil, nil, err
	}
	targets := xpath.Eval(q, doc)
	rec, err := ApplyToTargets(u, doc, g, targets)
	return rec, targets, err
}

// ApplyToTargets applies the update to the given pre-evaluated target nodes.
// The scheduler uses this form so the target evaluation it performed for
// lock acquisition is not repeated.
func ApplyToTargets(u *Update, doc *xmltree.Document, g *dataguide.DataGuide, targets []*xmltree.Node) (*UndoRec, error) {
	rec := &UndoRec{}
	fail := func(err error) (*UndoRec, error) {
		// Roll back any partial effects of this update before reporting.
		if uerr := rec.Undo(doc, g); uerr != nil {
			return nil, fmt.Errorf("%w (and undo failed: %v)", err, uerr)
		}
		return nil, err
	}
	switch u.Kind {
	case Insert:
		for _, target := range targets {
			n, err := u.New.Build(doc)
			if err != nil {
				return fail(err)
			}
			if err := doc.AttachAt(target, n, u.Pos); err != nil {
				return fail(err)
			}
			if err := g.AddSubtree(n); err != nil {
				return fail(err)
			}
			rec.actions = append(rec.actions, &undoInsert{placement{node: n}})
		}
	case Remove:
		for _, target := range targets {
			parent := target.Parent
			g.RemoveSubtree(target)
			idx, err := doc.Detach(target)
			if err != nil {
				// Re-register before failing: the subtree is still attached.
				if aerr := g.AddSubtree(target); aerr != nil {
					return nil, fmt.Errorf("%w (and guide restore failed: %v)", err, aerr)
				}
				return fail(err)
			}
			rec.actions = append(rec.actions, &undoRemove{placement{node: target, parent: parent, idx: idx}})
		}
	case Rename:
		for _, target := range targets {
			old := target.Name
			g.RemoveSubtree(target)
			target.Name = u.NewName
			if err := g.AddSubtree(target); err != nil {
				target.Name = old
				return fail(err)
			}
			rec.actions = append(rec.actions, &undoRename{node: target, other: old})
		}
	case Change:
		for _, target := range targets {
			if u.Attr != "" {
				prev, existed := target.SetAttr(u.Attr, u.Value)
				g.NoteAttrChanged(target, u.Attr, prev, existed)
				rec.actions = append(rec.actions, &undoChangeAttr{node: target, attr: u.Attr, other: prev, absent: !existed})
			} else {
				old := target.Text
				rec.actions = append(rec.actions, &undoChangeText{node: target, other: old})
				target.Text = u.Value
				g.NoteTextChanged(target, old)
			}
		}
	case Transpose:
		q2, err := u.Target2Query()
		if err != nil {
			return fail(err)
		}
		targets2 := xpath.Eval(q2, doc)
		if len(targets) != 1 || len(targets2) != 1 {
			return fail(fmt.Errorf("xupdate: transpose requires exactly one node per path (got %d and %d)", len(targets), len(targets2)))
		}
		a, b := targets[0], targets2[0]
		if err := doc.Transpose(a, b); err != nil {
			return fail(err)
		}
		if err := g.Move(a); err != nil {
			return fail(err)
		}
		if err := g.Move(b); err != nil {
			return fail(err)
		}
		rec.actions = append(rec.actions, &undoTranspose{a: a, b: b})
	default:
		return fail(fmt.Errorf("xupdate: unknown kind %d", int(u.Kind)))
	}
	return rec, nil
}
