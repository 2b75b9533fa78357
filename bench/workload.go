package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/txn"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xupdate"
)

// workload is one seeded traffic mix. Everything dtxd sees — the documents
// and each client's transaction stream — is a function of (workload, seed,
// client count), never of timing: a client's generator draws only from its
// own rng.
type workload struct {
	name     string
	docs     int
	docBytes int
	writeOps int // operations in one of its write transactions
	next     func(g *generator) txnSpec
}

// txnSpec is one logical transaction of a client's stream.
type txnSpec struct {
	ops      []txn.Operation
	readOnly bool // submitted through the lock-free snapshot path
}

// write reports whether the transaction carries at least one update.
func (t txnSpec) write() bool {
	for _, op := range t.ops {
		if op.Kind == txn.OpUpdate {
			return true
		}
	}
	return false
}

var workloads = []workload{
	{name: "paper_mix", docs: 4, docBytes: 256 << 10, writeOps: 5, next: paperMix},
	{name: "write_large_doc", docs: 1, docBytes: 1 << 20, writeOps: 3, next: writeLargeDoc},
	{name: "hot_section", docs: 1, docBytes: 64 << 10, writeOps: 3, next: hotSection},
	{name: "snapshot_beside_writer", docs: 2, docBytes: 256 << 10, writeOps: 2, next: snapshotBesideWriter},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func docName(i int) string { return fmt.Sprintf("d%d", i) }

// genDocs builds the workload's XMark documents from the seed.
func (w *workload) genDocs(seed int64) []*xmltree.Document {
	docs := make([]*xmltree.Document, w.docs)
	for i := range docs {
		docs[i] = xmark.Gen(xmark.Config{Name: docName(i), TargetBytes: w.docBytes, Seed: seed*131 + int64(i)})
	}
	return docs
}

// sectionLeaves names, per section kind, the element class and the leaves
// the update mix touches. Each update kind owns its leaves, so a rename or a
// transpose can never move a path a change was acknowledged on — the
// read-back gate depends on that.
type sectionLeaves struct {
	elem             string
	change           string // leaf whose text `change` rewrites
	rename, renameTo string // leaf toggled between two equally long names
	swapA, swapB     string // sibling leaves `transpose` swaps
}

var leavesBySection = map[string]sectionLeaves{
	"people":          {"person", "phone", "address", "addresx", "name", "emailaddress"},
	"open_auctions":   {"open_auction", "current", "itemref", "itemrex", "id", "initial"},
	"closed_auctions": {"closed_auction", "price", "date", "datx", "seller", "buyer"},
	"categories":      {"category", "name", "description", "descriptiox", "id", "name"},
	"regions":         {"item", "quantity", "description", "descriptiox", "name", "price"},
}

func leavesOf(section string) sectionLeaves {
	if strings.HasPrefix(section, "regions/") {
		return leavesBySection["regions"]
	}
	return leavesBySection[section]
}

// docShape records how many elements each section of one generated document
// holds, so positional paths always name an element that exists.
type docShape struct {
	sections []string
	count    map[string]int
}

func shapeOf(doc *xmltree.Document) docShape {
	sh := docShape{sections: xmark.Sections(doc), count: map[string]int{}}
	for _, sec := range doc.Root.Children {
		if sec.Name == "regions" {
			for _, region := range sec.Children {
				sh.count["regions/"+region.Name] = len(region.Children)
			}
			continue
		}
		sh.count[sec.Name] = len(sec.Children)
	}
	return sh
}

// generator produces one client's transaction stream.
type generator struct {
	w       *workload
	client  int
	clients int
	rng     *rand.Rand
	zipf    *rand.Zipf
	shapes  []docShape
	seq     int             // change values and insert ids are unique per client
	toggled map[string]bool // outstanding insert / rename per (kind, doc, section)
}

// generators returns the stream generators of the given number of clients
// over the workload's documents.
func (w *workload) generators(seed int64, docs []*xmltree.Document, clients int) []*generator {
	shapes := make([]docShape, len(docs))
	for i, d := range docs {
		shapes[i] = shapeOf(d)
	}
	gens := make([]*generator, clients)
	for c := range gens {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 17))
		gens[c] = &generator{
			w: w, client: c, clients: clients, rng: rng, shapes: shapes,
			zipf:    rand.NewZipf(rng, 1.2, 1, 15),
			toggled: map[string]bool{},
		}
	}
	return gens
}

func (g *generator) next() txnSpec { return g.w.next(g) }

func (g *generator) pickDoc() int { return g.rng.Intn(g.w.docs) }

func (g *generator) pickSection(doc int) string {
	secs := g.shapes[doc].sections
	return secs[g.rng.Intn(len(secs))]
}

// elemPath is the positional path of the k-th element of a section.
func elemPath(section string, k int) string {
	return fmt.Sprintf("/site/%s/%s[%d]", section, leavesOf(section).elem, k)
}

// pointQuery reads one leaf of one element: the result set stays O(1)
// whatever the document size.
func (g *generator) pointQuery(doc int, section string) txn.Operation {
	l := leavesOf(section)
	leaf := []string{l.change, l.swapA, l.swapB}[g.rng.Intn(3)]
	k := 1 + g.rng.Intn(g.shapes[doc].count[section])
	return txn.NewQuery(docName(doc), elemPath(section, k)+"/"+leaf)
}

// change rewrites the change-leaf of element k with a fixed-width value
// unique to this client, so the gate can tell whose write survived.
func (g *generator) change(doc int, section string, k int) txn.Operation {
	g.seq++
	return txn.NewUpdate(docName(doc), &xupdate.Update{
		Kind:   xupdate.Change,
		Target: elemPath(section, k) + "/" + leavesOf(section).change,
		Value:  fmt.Sprintf("%d.%06d", g.client, g.seq),
	})
}

// update draws one size-stationary update for the section: a change, or a
// toggle that undoes itself the next time it is drawn (insert then remove of
// the client's own element, rename there and back, transpose twice).
// Toggles act on elements the client owns; changes share the first 32.
func (g *generator) update(doc int, section string) txn.Operation {
	l := leavesOf(section)
	own := elemPath(section, min(2+g.client, g.shapes[doc].count[section]))
	name := docName(doc)
	switch p := g.rng.Float64(); {
	case p < 0.5:
		return g.change(doc, section, 1+g.rng.Intn(min(32, g.shapes[doc].count[section])))
	case p < 0.7:
		key := fmt.Sprintf("ins %d %s", doc, section)
		id := fmt.Sprintf("b%d-%s", g.client, strings.ReplaceAll(section, "/", "-"))
		g.toggled[key] = !g.toggled[key]
		if !g.toggled[key] {
			return txn.NewUpdate(name, &xupdate.Update{
				Kind:   xupdate.Remove,
				Target: fmt.Sprintf("/site/%s/%s[@id='%s']", section, l.elem, id),
			})
		}
		return txn.NewUpdate(name, &xupdate.Update{
			Kind: xupdate.Insert, Target: "/site/" + section, Pos: xmltree.Into,
			New: &xupdate.NodeSpec{Name: l.elem,
				Attrs:    []xmltree.Attr{{Name: "id", Value: id}},
				Children: []*xupdate.NodeSpec{{Name: "id", Text: id}, {Name: l.change, Text: "0.000000"}},
			},
		})
	case p < 0.85:
		key := fmt.Sprintf("ren %d %s", doc, section)
		from, to := l.rename, l.renameTo
		if g.toggled[key] {
			from, to = to, from
		}
		g.toggled[key] = !g.toggled[key]
		return txn.NewUpdate(name, &xupdate.Update{Kind: xupdate.Rename, Target: own + "/" + from, NewName: to})
	default:
		return txn.NewUpdate(name, &xupdate.Update{
			Kind: xupdate.Transpose, Target: own + "/" + l.swapA, Target2: own + "/" + l.swapB,
		})
	}
}

// paperMix is the paper's §3.2 default: 5 operations per transaction, 20 %
// update transactions carrying 20 % update operations (at least one),
// documents and sections drawn uniformly, reads from xmark.QueryFor.
func paperMix(g *generator) txnSpec {
	type slot struct {
		doc     int
		section string
		update  bool
	}
	updating := g.rng.Float64() < 0.2
	slots := make([]slot, 5)
	wrote := false
	for i := range slots {
		doc := g.pickDoc()
		slots[i] = slot{doc, g.pickSection(doc), updating && g.rng.Float64() < 0.2}
		wrote = wrote || slots[i].update
	}
	if updating && !wrote {
		slots[g.rng.Intn(len(slots))].update = true
	}
	var t txnSpec
	for _, s := range slots {
		if s.update {
			t.ops = append(t.ops, g.update(s.doc, s.section))
		} else {
			t.ops = append(t.ops, txn.NewQuery(docName(s.doc), xmark.QueryFor(s.section, g.rng)))
		}
	}
	return t
}

// writeLargeDoc keeps every client inside its own sections of one 1 MB
// document, so lock waits stay near zero and the O(document) work of a write
// (snapshot, re-serialisation, journal, publish) is what the latency shows.
func writeLargeDoc(g *generator) txnSpec {
	var own []string
	for i, sec := range g.shapes[0].sections {
		if i%g.clients == g.client {
			own = append(own, sec)
		}
	}
	section := own[g.rng.Intn(len(own))]
	t := txnSpec{ops: []txn.Operation{g.pointQuery(0, section), g.pointQuery(0, section)}}
	if g.rng.Float64() < 0.7 {
		k := 1 + g.rng.Intn(g.shapes[0].count[section])
		t.ops = append(t.ops, g.change(0, section, k))
	} else {
		t.ops = append(t.ops, g.pointQuery(0, section))
	}
	return t
}

// hotSection puts every client on the same 16 auctions of one small
// document, the auction Zipf-chosen: 80 % of the transactions change its
// current price after two reads, 20 % only read. Every read-only transaction
// and 40 % of the writers start with a scan of the whole class, which
// conflicts with every change, so lock waits, deadlock sweeps and retries
// dominate. Two overlapping scan-then-change writers always deadlock and the
// younger one dies — which a resubmitted victim always is, beside a
// closed-loop peer that is never idle. With every writer scanning first a
// victim lost about half its retries and exhausted them once in ~400
// transactions; at 40 % it loses ~0.4 of them, which maxRetries covers.
func hotSection(g *generator) txnSpec {
	const section = "open_auctions"
	const scan = "//open_auction/current"
	k := 1 + int(g.zipf.Uint64())
	auction := elemPath(section, k)
	point := func(leaf string) txn.Operation { return txn.NewQuery(docName(0), auction+"/"+leaf) }
	if g.rng.Float64() < 0.8 {
		first := point("id")
		if g.rng.Float64() < 0.4 {
			first = txn.NewQuery(docName(0), scan)
		}
		return txnSpec{ops: []txn.Operation{first, point("initial"), g.change(0, section, k)}}
	}
	return txnSpec{ops: []txn.Operation{txn.NewQuery(docName(0), scan), point("current"), point("initial")}}
}

// snapshotBesideWriter runs client 0 as the only writer and every other
// client as a read-only snapshot reader of the same two documents.
func snapshotBesideWriter(g *generator) txnSpec {
	if g.client == 0 {
		doc := g.pickDoc()
		section := g.pickSection(doc)
		k := 1 + g.rng.Intn(g.shapes[doc].count[section])
		return txnSpec{ops: []txn.Operation{g.pointQuery(doc, section), g.change(doc, section, k)}}
	}
	t := txnSpec{readOnly: true}
	for i := 0; i < 5; i++ {
		doc := g.pickDoc()
		t.ops = append(t.ops, txn.NewQuery(docName(doc), xmark.QueryFor(g.pickSection(doc), g.rng)))
	}
	return t
}

// hashSpec writes an inserted subtree, which Operation.String leaves out.
func hashSpec(w io.Writer, s *xupdate.NodeSpec) {
	fmt.Fprintf(w, " <%s %v %q", s.Name, s.Attrs, s.Text)
	for _, c := range s.Children {
		hashSpec(w, c)
	}
	fmt.Fprint(w, ">")
}

// streamHash fingerprints the first n transactions of every client's stream.
func streamHash(w *workload, seed int64, clients, n int) string {
	h := sha256.New()
	for c, g := range w.generators(seed, w.genDocs(seed), clients) {
		for i := 0; i < n; i++ {
			t := g.next()
			fmt.Fprintf(h, "%d %v", c, t.readOnly)
			for _, op := range t.ops {
				fmt.Fprintf(h, " %s", op)
				if op.Kind == txn.OpUpdate && op.Update.New != nil {
					hashSpec(h, op.Update.New)
				}
			}
			fmt.Fprintln(h)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
