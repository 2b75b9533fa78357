// Package wire is the binary codec shared by the TCP transport's frames and
// the journal's redo record. A type's layout is one function over a Coder,
// which either appends each field it is handed (encoding) or overwrites it
// with the next value of the input (decoding), so the directions cannot
// drift apart. Integers are varints, a bool is a byte, a string or a slice
// is its length then its contents, a pointer a presence byte then its
// target. Decoding sizes no allocation past what the unread input can hold,
// decodes an empty slice as nil, and reports malformed input as an error.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/txn"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// maxDepth bounds the nesting of an inserted subtree (a NodeSpec) in either
// direction, so a hostile input cannot recurse the decoder off its stack.
const maxDepth = 10_000

// Coder encodes or decodes one value. The zero value is not usable; start
// one with NewEncoder or NewDecoder.
type Coder struct {
	b     []byte // encoding: the output so far; decoding: the unread input
	dec   bool
	err   error
	depth int
}

// NewEncoder returns a Coder that appends to b.
func NewEncoder(b []byte) Coder { return Coder{b: b} }

// NewDecoder returns a Coder that reads b. Decoded strings are copies, so b
// may be reused once decoding is done.
func NewDecoder(b []byte) Coder { return Coder{b: b, dec: true} }

// Decoding reports whether c decodes.
func (c *Coder) Decoding() bool { return c.dec }

// Bytes returns the encoded output.
func (c *Coder) Bytes() []byte { return c.b }

// Err returns the first error met: a spec nested past maxDepth, or when
// decoding a malformed field or input left over after the value.
func (c *Coder) Err() error {
	if c.dec && c.err == nil && len(c.b) > 0 {
		c.Fail(fmt.Errorf("wire: %d trailing bytes", len(c.b)))
	}
	return c.err
}

// Fail records an error; later fields decode as zero values.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err, c.b = err, nil
	}
}

// errShort is the error of input that ends inside a field.
var errShort = errors.New("wire: input ends inside a field")

// count reads a length prefix and checks that the unread input can hold
// that many elements of at least size bytes each.
func (c *Coder) count(size int) int {
	n, k := binary.Uvarint(c.b)
	if c.skip(k); n > uint64(len(c.b)/size) {
		c.Fail(errShort)
		return 0
	}
	return int(n)
}

// skip consumes n bytes of input; n ≤ 0 is a varint that ends early or
// overflows.
func (c *Coder) skip(n int) {
	if n <= 0 {
		c.Fail(errShort)
		return
	}
	c.b = c.b[n:]
}

// Int64 codes signed varints.
func (c *Coder) Int64(vs ...*int64) {
	for _, v := range vs {
		if !c.dec {
			c.b = binary.AppendVarint(c.b, *v)
			continue
		}
		var n int
		*v, n = binary.Varint(c.b)
		c.skip(n)
	}
}

// Int codes ints as signed varints. Like every method, it writes to its
// arguments only when decoding: an encoded value may be shared by other
// goroutines.
func (c *Coder) Int(vs ...*int) {
	for _, v := range vs {
		if !c.dec {
			c.b = binary.AppendVarint(c.b, int64(*v))
			continue
		}
		x, n := binary.Varint(c.b)
		c.skip(n)
		*v = int(x)
	}
}

// Byte codes one byte.
func (c *Coder) Byte(v *byte) {
	switch {
	case !c.dec:
		c.b = append(c.b, *v)
	case len(c.b) == 0:
		c.Fail(errShort)
		*v = 0
	default:
		c.b, *v = c.b[1:], c.b[0]
	}
}

// Bool codes bools as one byte each, 0 or 1.
func (c *Coder) Bool(vs ...*bool) {
	for _, v := range vs {
		var x byte
		if *v {
			x = 1
		}
		c.Byte(&x)
		if x > 1 {
			c.Fail(fmt.Errorf("wire: bool byte %d", x))
		}
		if c.dec {
			*v = x == 1
		}
	}
}

// String codes length-prefixed strings.
func (c *Coder) String(ss ...*string) {
	for _, s := range ss {
		if !c.dec {
			c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
			c.b = append(c.b, *s...)
			continue
		}
		n := c.count(1)
		*s, c.b = string(c.b[:n]), c.b[n:]
	}
}

// Strings codes a slice of strings.
func (c *Coder) Strings(s *[]string) {
	Slice(c, s, 1, func(c *Coder, s *string) { c.String(s) })
}

// Slice codes a slice: its length, then each element by elem. Decoding
// trusts no length past what the unread input can hold at size bytes (at
// least one) per element, and decodes an empty slice as nil.
func Slice[T any](c *Coder, s *[]T, size int, elem func(*Coder, *T)) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	n := c.count(size)
	if n == 0 {
		*s = nil
		return
	}
	out := make([]T, n)
	for i := range out {
		elem(c, &out[i])
	}
	*s = out
}

// Ptr codes a pointer: a presence byte, then the target by elem.
func Ptr[T any](c *Coder, p **T, elem func(*Coder, *T)) {
	present := !c.dec && *p != nil
	c.Bool(&present)
	if c.dec {
		*p = nil
		if present {
			*p = new(T)
		}
	}
	if present {
		elem(c, *p)
	}
}

// ID codes transaction identifiers.
func (c *Coder) ID(ids ...*txn.ID) {
	for _, id := range ids {
		c.Int(&id.Site)
		c.Int64(&id.Seq)
	}
}

// TS codes transaction timestamps.
func (c *Coder) TS(tss ...*txn.TS) {
	for _, ts := range tss {
		c.Int64((*int64)(ts))
	}
}

// Op codes one operation with its status flags.
func (c *Coder) Op(op *txn.Operation) {
	c.Int((*int)(&op.Kind))
	c.String(&op.Doc, &op.Query)
	Ptr(c, &op.Update, (*Coder).update)
	c.Bool(&op.Executed, &op.AcquireLocking, &op.Aborted, &op.Deadlock)
}

// Ops codes a slice of operations. An operation takes at least 8 bytes.
func (c *Coder) Ops(ops *[]txn.Operation) { Slice(c, ops, 8, (*Coder).Op) }

func (c *Coder) update(u *xupdate.Update) {
	c.Int((*int)(&u.Kind), (*int)(&u.Pos))
	c.String(&u.Target, &u.NewName, &u.Value, &u.Attr, &u.Target2)
	Ptr(c, &u.New, (*Coder).nodeSpec)
}

func (c *Coder) nodeSpec(s *xupdate.NodeSpec) {
	if c.depth++; c.depth > maxDepth {
		c.Fail(fmt.Errorf("wire: node spec nested deeper than %d", maxDepth))
		return
	}
	c.String(&s.Name, &s.Text)
	Slice(c, &s.Attrs, 2, func(c *Coder, a *xmltree.Attr) { c.String(&a.Name, &a.Value) })
	Slice(c, &s.Children, 1, func(c *Coder, p **xupdate.NodeSpec) { Ptr(c, p, (*Coder).nodeSpec) })
	c.depth--
}
