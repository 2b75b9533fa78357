package xmark

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// Sections returns the workload sections present (non-empty) in doc: the
// top-level schema sections plus one entry per populated region. The client
// simulator uses this to route operations to fragments that actually hold
// the data the operation touches — the role of the fragmentation predicate
// in a real partially-replicated deployment.
func Sections(doc *xmltree.Document) []string {
	var out []string
	for _, sec := range doc.Root.Children {
		if len(sec.Children) == 0 {
			continue
		}
		if sec.Name == "regions" {
			for _, region := range sec.Children {
				if len(region.Children) > 0 {
					out = append(out, "regions/"+region.Name)
				}
			}
			continue
		}
		out = append(out, sec.Name)
	}
	sort.Strings(out)
	return out
}

// QueryFor returns a read query targeting the given section, drawn from the
// XMark-derived mix: class scans (every person's name) and point lookups
// (one auction's current price).
func QueryFor(section string, rng *rand.Rand) string {
	if region, ok := strings.CutPrefix(section, "regions/"); ok {
		qs := []string{
			"/site/regions/" + region + "/item/name",
			"/site/regions/" + region + "/item/price",
			"/site/regions/" + region + "/item[1]/description",
			"//" + region + "/item/quantity",
		}
		return qs[rng.Intn(len(qs))]
	}
	var qs []string
	switch section {
	case "people":
		qs = []string{
			"/site/people/person/name",
			"//person/phone",
			"/site/people/person[1]/emailaddress",
			"//person[1]/address",
		}
	case "open_auctions":
		qs = []string{
			"/site/open_auctions/open_auction/current",
			"//open_auction/bidder/increase",
			"/site/open_auctions/open_auction[1]/initial",
		}
	case "closed_auctions":
		qs = []string{
			"/site/closed_auctions/closed_auction/price",
			"//closed_auction[1]/buyer",
			"/site/closed_auctions/closed_auction/date",
		}
	case "categories":
		qs = []string{
			"/site/categories/category/name",
			"//category[1]/description",
		}
	default:
		qs = []string{"/site"}
	}
	return qs[rng.Intn(len(qs))]
}

// PredicateQueryRange is the id domain PredicateQueryFor draws from. Ids in
// generated documents are dense from zero per section, so small documents
// make some lookups miss — a realistic point-query mix either way.
const PredicateQueryRange = 512

// PredicateQueryFor returns a point lookup for the section: an equality
// predicate over the section's id element, the query shape the value index
// serves. Index the "id" key to take these off the scan path.
func PredicateQueryFor(section string, id int64) string {
	if region, ok := strings.CutPrefix(section, "regions/"); ok {
		return fmt.Sprintf("//%s/item[id='%d']/name", region, id)
	}
	switch section {
	case "people":
		return fmt.Sprintf("//person[id='%d']/emailaddress", id)
	case "open_auctions":
		return fmt.Sprintf("//open_auction[id='%d']/current", id)
	case "closed_auctions":
		return fmt.Sprintf("//closed_auction[id='%d']/price", id)
	case "categories":
		return fmt.Sprintf("//category[id='%d']/name", id)
	default:
		return fmt.Sprintf("//person[id='%d']/name", id)
	}
}

// UpdateFor returns an update targeting the given section.
func UpdateFor(section string, uniq int64, rng *rand.Rand) *xupdate.Update {
	if region, ok := strings.CutPrefix(section, "regions/"); ok {
		if rng.Intn(2) == 0 {
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
		}
		return &xupdate.Update{
			Kind: xupdate.Change, Target: "/site/regions/" + region + "/item[1]/quantity",
			Value: fmt.Sprintf("%d", 1+rng.Intn(9)),
		}
	}
	switch section {
	case "people":
		return MakeUpdate(InsertPerson, uniq, rng)
	case "open_auctions":
		if rng.Intn(2) == 0 {
			return MakeUpdate(InsertBidder, uniq, rng)
		}
		return MakeUpdate(ChangePrice, uniq, rng)
	case "closed_auctions":
		if rng.Intn(3) == 0 {
			return MakeUpdate(RemoveClosedAuction, uniq, rng)
		}
		return &xupdate.Update{
			Kind: xupdate.Change, Target: "/site/closed_auctions/closed_auction[1]/price",
			Value: money(rng),
		}
	case "categories":
		return MakeUpdate(RenameCategoryName, uniq, rng)
	default:
		return MakeUpdate(InsertPerson, uniq, rng)
	}
}
