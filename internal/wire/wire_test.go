package wire

import (
	"bytes"
	"testing"

	"repro/internal/xupdate"
)

// TestNodeSpecDepthBound: a subtree nested past maxDepth is refused both
// ways — input that nests deeper fails instead of recursing on, and such a
// spec does not encode.
func TestNodeSpecDepthBound(t *testing.T) {
	level := []byte{1, 'n', 0, 0, 1, 1} // name "n", no text, no attrs, one present child
	c := NewDecoder(bytes.Repeat(level, maxDepth+1))
	var s xupdate.NodeSpec
	c.nodeSpec(&s)
	if c.Err() == nil {
		t.Fatal("input nested past maxDepth decoded")
	}
	deep := &xupdate.NodeSpec{Name: "n"}
	for range maxDepth {
		deep = &xupdate.NodeSpec{Name: "n", Children: []*xupdate.NodeSpec{deep}}
	}
	c = NewEncoder(nil)
	c.nodeSpec(deep)
	if c.Err() == nil {
		t.Fatal("a spec nested past maxDepth encoded")
	}
}
