package xpath

import (
	"strconv"
	"strings"
)

// Axis selects how a step moves through the tree.
type Axis int

// Supported axes: '/' child and '//' descendant-or-self.
const (
	Child Axis = iota
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// PredKind distinguishes the predicate forms of the subset.
type PredKind int

// Predicate kinds.
const (
	PredChild    PredKind = iota // [name = 'v'] — child element text comparison
	PredAttr                     // [@attr = 'v']
	PredText                     // [text() = 'v']
	PredPosition                 // [n] — 1-based position among matched siblings
)

// CmpOp is a predicate comparison operator.
type CmpOp int

// Comparison operators. The ordered operators compare with CompareValues
// (numeric when both sides parse as numbers, byte-wise otherwise).
const (
	Eq CmpOp = iota
	Neq
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Neq:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "="
}

// Ordered reports whether op is one of the range operators (<, <=, >, >=),
// which an index serves with a sorted-key scan rather than a map hit.
func (op CmpOp) Ordered() bool {
	return op == Lt || op == Le || op == Gt || op == Ge
}

// Pred is one bracketed predicate of a step.
type Pred struct {
	Kind     PredKind
	Name     string // child element or attribute name (PredChild/PredAttr)
	Op       CmpOp
	Value    string
	Position int // PredPosition
}

// Step is one location step of a query.
type Step struct {
	Axis  Axis
	Name  string // element name; "*" means any
	Preds []Pred
}

// Query is a parsed XPath expression of the DTX subset. A Query is
// immutable after Parse and safe to share between goroutines.
type Query struct {
	Steps []Step
	// Attr, when non-empty, selects the named attribute of the target nodes
	// (a trailing /@name step).
	Attr      string
	structKey string
}

// String returns the canonical textual form of the query.
func (q *Query) String() string {
	var b strings.Builder
	for _, s := range q.Steps {
		b.WriteString(s.Axis.String())
		b.WriteString(s.Name)
		for _, p := range s.Preds {
			b.WriteByte('[')
			switch p.Kind {
			case PredChild:
				b.WriteString(p.Name)
				b.WriteString(p.Op.String())
				b.WriteString("'" + p.Value + "'")
			case PredAttr:
				b.WriteString("@" + p.Name)
				b.WriteString(p.Op.String())
				b.WriteString("'" + p.Value + "'")
			case PredText:
				b.WriteString("text()")
				b.WriteString(p.Op.String())
				b.WriteString("'" + p.Value + "'")
			case PredPosition:
				b.WriteString(strconv.Itoa(p.Position))
			}
			b.WriteByte(']')
		}
	}
	if q.Attr != "" {
		b.WriteString("/@")
		b.WriteString(q.Attr)
	}
	return b.String()
}

// StructureKey returns a canonical rendering of the parts of the query that
// determine its evaluation against a structural summary: the axes and
// element names of every step, plus the child-element names of predicates.
// Predicate *values* and positions are omitted — a DataGuide cannot decide
// them, so two queries differing only there reach exactly the same summary
// nodes. Structural-summary caches key on this instead of the query text so
// that e.g. //person[id='7']/name and //person[id='9']/name share one entry.
func (q *Query) StructureKey() string {
	if q.structKey == "" {
		// Queries assembled literally (tests) bypass Parse; derive per call
		// rather than share the empty key between distinct shapes.
		return structureKey(q)
	}
	return q.structKey
}

// structureKey builds the StructureKey; called once at Parse.
func structureKey(q *Query) string {
	var b strings.Builder
	for _, s := range q.Steps {
		b.WriteString(s.Axis.String())
		b.WriteString(s.Name)
		for _, p := range s.Preds {
			if p.Kind == PredChild {
				b.WriteByte('[')
				b.WriteString(p.Name)
				b.WriteByte(']')
			}
		}
	}
	return b.String()
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.lex.errf(p.tok.pos, "expected %v, found %v", k, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// Parse parses an absolute location path in the DTX XPath subset.
func Parse(input string) (*Query, error) {
	p := &parser{lex: &lexer{input: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &Query{}
	if p.tok.kind != tokSlash && p.tok.kind != tokDSlash {
		return nil, p.lex.errf(p.tok.pos, "query must start with '/' or '//'")
	}
	for p.tok.kind == tokSlash || p.tok.kind == tokDSlash {
		axis := Child
		if p.tok.kind == tokDSlash {
			axis = Descendant
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Trailing attribute selection: /@name ends the query.
		if p.tok.kind == tokAt {
			if axis != Child {
				return nil, p.lex.errf(p.tok.pos, "attribute selection requires '/' axis")
			}
			if len(q.Steps) == 0 {
				return nil, p.lex.errf(p.tok.pos, "attribute selection requires a preceding step")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			name, err := p.expect(tokName)
			if err != nil {
				return nil, err
			}
			q.Attr = name.text
			break
		}
		var name string
		switch p.tok.kind {
		case tokName:
			name = p.tok.text
		case tokStar:
			name = "*"
		default:
			return nil, p.lex.errf(p.tok.pos, "expected name or '*', found %v", p.tok.kind)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		step := Step{Axis: axis, Name: name}
		for p.tok.kind == tokLBracket {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			step.Preds = append(step.Preds, pred)
		}
		q.Steps = append(q.Steps, step)
	}
	if p.tok.kind != tokEOF {
		return nil, p.lex.errf(p.tok.pos, "unexpected %v after query", p.tok.kind)
	}
	if len(q.Steps) == 0 {
		return nil, p.lex.errf(0, "empty query")
	}
	q.structKey = structureKey(q)
	return q, nil
}

// MustParse parses a query or panics; for tests and static query tables.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) parsePred() (Pred, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return Pred{}, err
	}
	var pred Pred
	switch p.tok.kind {
	case tokNumber:
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 1 {
			return Pred{}, p.lex.errf(p.tok.pos, "position must be a positive integer")
		}
		pred = Pred{Kind: PredPosition, Position: n}
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
	case tokAt:
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
		name, err := p.expect(tokName)
		if err != nil {
			return Pred{}, err
		}
		op, val, err := p.parseCmp()
		if err != nil {
			return Pred{}, err
		}
		pred = Pred{Kind: PredAttr, Name: name.text, Op: op, Value: val}
	case tokName:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Pred{}, err
		}
		if name == "text" && p.tok.kind == tokLParen {
			if err := p.advance(); err != nil {
				return Pred{}, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return Pred{}, err
			}
			op, val, err := p.parseCmp()
			if err != nil {
				return Pred{}, err
			}
			pred = Pred{Kind: PredText, Op: op, Value: val}
			break
		}
		op, val, err := p.parseCmp()
		if err != nil {
			return Pred{}, err
		}
		pred = Pred{Kind: PredChild, Name: name, Op: op, Value: val}
	default:
		return Pred{}, p.lex.errf(p.tok.pos, "expected predicate, found %v", p.tok.kind)
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return Pred{}, err
	}
	return pred, nil
}

func (p *parser) parseCmp() (CmpOp, string, error) {
	var op CmpOp
	switch p.tok.kind {
	case tokEq:
		op = Eq
	case tokNeq:
		op = Neq
	case tokLt:
		op = Lt
	case tokLe:
		op = Le
	case tokGt:
		op = Gt
	case tokGe:
		op = Ge
	default:
		return 0, "", p.lex.errf(p.tok.pos, "expected comparison operator, found %v", p.tok.kind)
	}
	if err := p.advance(); err != nil {
		return 0, "", err
	}
	switch p.tok.kind {
	case tokString, tokNumber:
		val := p.tok.text
		if err := p.advance(); err != nil {
			return 0, "", err
		}
		return op, val, nil
	default:
		return 0, "", p.lex.errf(p.tok.pos, "expected literal, found %v", p.tok.kind)
	}
}
