// Package xmark implements the XMark-like workload substrate of the
// evaluation: a deterministic generator for auction-site documents following
// the schema of the paper's Fig. 7 (site / regions / people / open_auctions
// / closed_auctions / categories), a byte-size dial standing in for XMark's
// scale factor, and the query and update mixes the paper derives from XMark
// ("the XMark benchmark is extended, adapting its queries to the XPath
// language and adding update operations").
package xmark

import (
	"fmt"
	"math/rand"

	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// Regions of the XMark schema, in document order.
var Regions = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}

var firstNames = []string{
	"Ana", "Bruno", "Carla", "Diego", "Elisa", "Fabio", "Gabriela", "Heitor",
	"Iara", "Joao", "Karla", "Leonardo", "Maria", "Nuno", "Olivia", "Paulo",
}

var lastNames = []string{
	"Almeida", "Barros", "Costa", "Dias", "Esteves", "Ferreira", "Gomes",
	"Henrique", "Iglesias", "Junqueira", "Klein", "Lima", "Machado", "Nunes",
}

var itemWords = []string{
	"clock", "vase", "lamp", "painting", "chair", "desk", "mirror", "carpet",
	"statue", "radio", "camera", "guitar", "globe", "atlas", "compass",
}

var categoryWords = []string{
	"antiques", "electronics", "furniture", "art", "music", "travel",
	"books", "tools", "garden", "sports",
}

// Config sizes a generated document.
type Config struct {
	// Name is the document name (default "xmark").
	Name string
	// TargetBytes approximates the serialized size of the document. The
	// generator adds whole entities until the estimate passes the target.
	TargetBytes int
	// Seed makes generation deterministic.
	Seed int64
}

// Gen produces an XMark-like document of roughly cfg.TargetBytes bytes.
//
// Structure (Fig. 7 subset, uniform entity sizes so fragmentation yields
// similar volumes per site as in the paper's allocation):
//
//	site
//	├── regions
//	│   └── <region>*      item (id, name, quantity, price, description)
//	├── people             person (id, name, emailaddress, phone, address)
//	├── open_auctions      open_auction (id, initial, current, bidder*, itemref)
//	├── closed_auctions    closed_auction (id, seller, buyer, price, itemref)
//	└── categories         category (id, name, description)
func Gen(cfg Config) *xmltree.Document {
	if cfg.Name == "" {
		cfg.Name = "xmark"
	}
	if cfg.TargetBytes <= 0 {
		cfg.TargetBytes = 64 << 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	doc := xmltree.NewDocument(cfg.Name, "site")

	regions := attach(doc, doc.Root, "regions")
	regionNodes := make([]*xmltree.Node, len(Regions))
	for i, r := range Regions {
		regionNodes[i] = attach(doc, regions, r)
	}
	people := attach(doc, doc.Root, "people")
	open := attach(doc, doc.Root, "open_auctions")
	closed := attach(doc, doc.Root, "closed_auctions")
	categories := attach(doc, doc.Root, "categories")

	// Round-robin entity kinds until the size target is met, so every
	// section grows proportionally and fragment sizes stay comparable. The
	// size estimate is tracked incrementally: re-walking the document per
	// entity would make generation quadratic.
	size := doc.ByteSize()
	itemN, personN, openN, closedN, catN := 0, 0, 0, 0, 0
	for i := 0; size < cfg.TargetBytes; i++ {
		var added *xmltree.Node
		switch i % 5 {
		case 0:
			added = addItem(doc, regionNodes[itemN%len(regionNodes)], itemN, rng)
			itemN++
		case 1:
			added = addPerson(doc, people, personN, rng)
			personN++
		case 2:
			added = addOpenAuction(doc, open, openN, itemN, rng)
			openN++
		case 3:
			added = addClosedAuction(doc, closed, closedN, itemN, personN, rng)
			closedN++
		case 4:
			if catN < 4*len(categoryWords) {
				added = addCategory(doc, categories, catN, rng)
				catN++
			}
		}
		if added != nil {
			size += added.ByteSize()
		}
	}
	return doc
}

func attach(doc *xmltree.Document, parent *xmltree.Node, name string) *xmltree.Node {
	n := doc.NewElement(name)
	if err := doc.AttachAt(parent, n, xmltree.Into); err != nil {
		panic(err)
	}
	return n
}

func attachText(doc *xmltree.Document, parent *xmltree.Node, name, text string) *xmltree.Node {
	n := attach(doc, parent, name)
	n.Text = text
	return n
}

func addItem(doc *xmltree.Document, region *xmltree.Node, id int, rng *rand.Rand) *xmltree.Node {
	item := attach(doc, region, "item")
	item.SetAttr("id", fmt.Sprintf("item%d", id))
	attachText(doc, item, "id", fmt.Sprintf("%d", id))
	attachText(doc, item, "name", pick(rng, itemWords)+" "+pick(rng, itemWords))
	attachText(doc, item, "quantity", fmt.Sprintf("%d", 1+rng.Intn(9)))
	attachText(doc, item, "price", money(rng))
	attachText(doc, item, "description", sentence(rng, 6))
	return item
}

func addPerson(doc *xmltree.Document, people *xmltree.Node, id int, rng *rand.Rand) *xmltree.Node {
	p := attach(doc, people, "person")
	p.SetAttr("id", fmt.Sprintf("person%d", id))
	name := pick(rng, firstNames) + " " + pick(rng, lastNames)
	attachText(doc, p, "id", fmt.Sprintf("%d", id))
	attachText(doc, p, "name", name)
	attachText(doc, p, "emailaddress", fmt.Sprintf("p%d@example.org", id))
	attachText(doc, p, "phone", fmt.Sprintf("+55 85 9%07d", rng.Intn(10000000)))
	attachText(doc, p, "address", sentence(rng, 4))
	return p
}

func addOpenAuction(doc *xmltree.Document, open *xmltree.Node, id, items int, rng *rand.Rand) *xmltree.Node {
	a := attach(doc, open, "open_auction")
	a.SetAttr("id", fmt.Sprintf("open%d", id))
	attachText(doc, a, "id", fmt.Sprintf("%d", id))
	attachText(doc, a, "initial", money(rng))
	attachText(doc, a, "current", money(rng))
	for b := 0; b < 1+rng.Intn(3); b++ {
		bid := attach(doc, a, "bidder")
		attachText(doc, bid, "date", date(rng))
		attachText(doc, bid, "increase", money(rng))
	}
	if items > 0 {
		attachText(doc, a, "itemref", fmt.Sprintf("item%d", rng.Intn(items)))
	}
	return a
}

func addClosedAuction(doc *xmltree.Document, closed *xmltree.Node, id, items, persons int, rng *rand.Rand) *xmltree.Node {
	a := attach(doc, closed, "closed_auction")
	a.SetAttr("id", fmt.Sprintf("closed%d", id))
	attachText(doc, a, "id", fmt.Sprintf("%d", id))
	if persons > 0 {
		attachText(doc, a, "seller", fmt.Sprintf("person%d", rng.Intn(persons)))
		attachText(doc, a, "buyer", fmt.Sprintf("person%d", rng.Intn(persons)))
	}
	attachText(doc, a, "price", money(rng))
	if items > 0 {
		attachText(doc, a, "itemref", fmt.Sprintf("item%d", rng.Intn(items)))
	}
	attachText(doc, a, "date", date(rng))
	return a
}

func addCategory(doc *xmltree.Document, categories *xmltree.Node, id int, rng *rand.Rand) *xmltree.Node {
	c := attach(doc, categories, "category")
	c.SetAttr("id", fmt.Sprintf("category%d", id))
	attachText(doc, c, "id", fmt.Sprintf("%d", id))
	attachText(doc, c, "name", pick(rng, categoryWords))
	attachText(doc, c, "description", sentence(rng, 5))
	return c
}

func pick(rng *rand.Rand, words []string) string { return words[rng.Intn(len(words))] }

func money(rng *rand.Rand) string {
	return fmt.Sprintf("%d.%02d", 1+rng.Intn(499), rng.Intn(100))
}

func date(rng *rand.Rand) string {
	return fmt.Sprintf("%04d-%02d-%02d", 2001+rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(28))
}

func sentence(rng *rand.Rand, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += pick(rng, itemWords)
	}
	return out
}

// Queries returns the read workload: XMark-flavoured queries rewritten in
// the DTX XPath subset, touching every section of the schema. The exact
// rewritten query set of the paper is unpublished; this mix preserves the
// coverage (regional items, people directory, auction monitoring, category
// browsing) and read-footprint classes (point lookups via predicates, full
// scans via //).
func Queries() []string {
	qs := []string{
		"/site/people/person/name",
		"//person[id='1']/emailaddress",
		"/site/open_auctions/open_auction/current",
		"//open_auction/bidder/increase",
		"/site/closed_auctions/closed_auction/price",
		"//closed_auction[1]/buyer",
		"/site/categories/category/name",
		"//category/description",
		"//person/phone",
		"/site/people/person[2]/address",
	}
	for _, r := range Regions {
		qs = append(qs,
			"/site/regions/"+r+"/item/name",
			"/site/regions/"+r+"/item/price",
		)
	}
	return qs
}

// UpdateKind selects which update mix entry to build.
type UpdateKind int

// Update mix entries, mirroring the paper's five update operations over the
// auction schema.
const (
	InsertPerson UpdateKind = iota
	InsertItem
	InsertBidder
	ChangePrice
	ChangeQuantity
	RemoveClosedAuction
	RenameCategoryName
	numUpdateKinds
)

// MakeUpdate builds the n-th update of a client's stream, deterministic in
// (kind, uniq).
func MakeUpdate(kind UpdateKind, uniq int64, rng *rand.Rand) *xupdate.Update {
	switch kind {
	case InsertPerson:
		return &xupdate.Update{
			Kind: xupdate.Insert, Target: "/site/people", Pos: xmltree.Into,
			New: &xupdate.NodeSpec{Name: "person",
				Attrs: []xmltree.Attr{{Name: "id", Value: fmt.Sprintf("nperson%d", uniq)}},
				Children: []*xupdate.NodeSpec{
					{Name: "id", Text: fmt.Sprintf("n%d", uniq)},
					{Name: "name", Text: pick(rng, firstNames) + " " + pick(rng, lastNames)},
					{Name: "emailaddress", Text: fmt.Sprintf("n%d@example.org", uniq)},
				}},
		}
	case InsertItem:
		region := Regions[rng.Intn(len(Regions))]
		return &xupdate.Update{
			Kind: xupdate.Insert, Target: "/site/regions/" + region, Pos: xmltree.Into,
			New: &xupdate.NodeSpec{Name: "item",
				Attrs: []xmltree.Attr{{Name: "id", Value: fmt.Sprintf("nitem%d", uniq)}},
				Children: []*xupdate.NodeSpec{
					{Name: "id", Text: fmt.Sprintf("n%d", uniq)},
					{Name: "name", Text: pick(rng, itemWords)},
					{Name: "price", Text: money(rng)},
				}},
		}
	case InsertBidder:
		return &xupdate.Update{
			Kind: xupdate.Insert, Target: "/site/open_auctions/open_auction[1]", Pos: xmltree.Into,
			New: &xupdate.NodeSpec{Name: "bidder", Children: []*xupdate.NodeSpec{
				{Name: "date", Text: date(rng)},
				{Name: "increase", Text: money(rng)},
			}},
		}
	case ChangePrice:
		return &xupdate.Update{
			Kind: xupdate.Change, Target: "/site/open_auctions/open_auction[1]/current",
			Value: money(rng),
		}
	case ChangeQuantity:
		region := Regions[rng.Intn(len(Regions))]
		return &xupdate.Update{
			Kind: xupdate.Change, Target: "/site/regions/" + region + "/item[1]/quantity",
			Value: fmt.Sprintf("%d", 1+rng.Intn(9)),
		}
	case RemoveClosedAuction:
		return &xupdate.Update{
			Kind: xupdate.Remove, Target: "/site/closed_auctions/closed_auction[1]",
		}
	case RenameCategoryName:
		return &xupdate.Update{
			Kind: xupdate.Change, Target: "/site/categories/category[1]/name",
			Value: pick(rng, categoryWords),
		}
	default:
		return MakeUpdate(UpdateKind(int(kind)%int(numUpdateKinds)), uniq, rng)
	}
}
