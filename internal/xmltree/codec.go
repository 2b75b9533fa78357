package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document from r into the tree model. Namespaces,
// comments and processing instructions are discarded; character data is
// trimmed and concatenated per element.
func Parse(name string, r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var doc *Document
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var n *Node
			if doc == nil {
				doc = NewDocument(name, t.Name.Local)
				n = doc.Root
			} else {
				if len(stack) == 0 {
					return nil, fmt.Errorf("xmltree: parse %s: multiple roots", name)
				}
				n = doc.NewElement(t.Name.Local)
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
				n.Parent = parent
			}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse %s: unbalanced end element", name)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := strings.TrimSpace(string(t))
				if text != "" {
					top := stack[len(stack)-1]
					if top.Text != "" {
						top.Text += " "
					}
					top.Text += text
				}
			}
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("xmltree: parse %s: empty document", name)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse %s: unclosed elements", name)
	}
	doc.lastWriteSize.Store(dec.InputOffset())
	return doc, nil
}

// ParseString is a convenience wrapper over Parse for string input.
func ParseString(name, s string) (*Document, error) {
	return Parse(name, strings.NewReader(s))
}

// WriteTo serializes the document as indented XML. Every checkpoint and
// catch-up transfer of a document goes through it, so the buffer is
// pre-sized from the previous serialization of the same document to avoid
// growth copies.
func (d *Document) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	if last := int(d.lastWriteSize.Load()); last > 0 {
		buf.Grow(last + last/8)
	}
	writeNode(&buf, d.Root, 0)
	d.lastWriteSize.Store(int64(buf.Len()))
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// String returns the document serialized as indented XML.
func (d *Document) String() string {
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		return ""
	}
	return buf.String()
}

// indentPad backs writeIndent: indentation is written by slicing this pad
// instead of allocating a fresh strings.Repeat per node.
var indentPad = strings.Repeat("  ", 64)

func writeIndent(buf *bytes.Buffer, depth int) {
	n := 2 * depth
	for n > len(indentPad) {
		buf.WriteString(indentPad)
		n -= len(indentPad)
	}
	buf.WriteString(indentPad[:n])
}

// escapeString writes s XML-escaped, byte-for-byte compatible with
// xml.EscapeText. The fast path handles printable ASCII — the overwhelming
// case for document content — by copying unescaped runs in bulk without the
// []byte conversion and rune decoding the stdlib pays per call; control and
// non-ASCII bytes defer to the stdlib for rune validation and replacement.
func escapeString(buf *bytes.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 0x80 || (c < 0x20 && c != '\t' && c != '\n' && c != '\r') {
			xml.EscapeText(buf, []byte(s))
			return
		}
	}
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\'':
			esc = "&#39;"
		case '"':
			esc = "&#34;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			continue
		}
		buf.WriteString(s[last:i])
		buf.WriteString(esc)
		last = i + 1
	}
	buf.WriteString(s[last:])
}

func writeNode(buf *bytes.Buffer, n *Node, depth int) {
	writeIndent(buf, depth)
	buf.WriteByte('<')
	buf.WriteString(n.Name)
	for _, a := range n.Attrs {
		buf.WriteByte(' ')
		buf.WriteString(a.Name)
		buf.WriteString(`="`)
		escapeString(buf, a.Value)
		buf.WriteByte('"')
	}
	if len(n.Children) == 0 && n.Text == "" {
		buf.WriteString("/>\n")
		return
	}
	buf.WriteByte('>')
	if len(n.Children) == 0 {
		escapeString(buf, n.Text)
		buf.WriteString("</")
		buf.WriteString(n.Name)
		buf.WriteString(">\n")
		return
	}
	buf.WriteByte('\n')
	if n.Text != "" {
		writeIndent(buf, depth+1)
		escapeString(buf, n.Text)
		buf.WriteByte('\n')
	}
	for _, c := range n.Children {
		writeNode(buf, c, depth+1)
	}
	writeIndent(buf, depth)
	buf.WriteString("</")
	buf.WriteString(n.Name)
	buf.WriteString(">\n")
}
