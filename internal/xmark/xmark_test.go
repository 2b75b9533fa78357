package xmark

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataguide"
	"repro/internal/replica"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

func TestGenSchema(t *testing.T) {
	doc := Gen(Config{TargetBytes: 32 << 10, Seed: 1})
	if doc.Root.Name != "site" {
		t.Fatalf("root = %s", doc.Root.Name)
	}
	for _, section := range []string{"regions", "people", "open_auctions", "closed_auctions", "categories"} {
		if got := xpath.Eval(xpath.MustParse("/site/"+section), doc); len(got) != 1 {
			t.Fatalf("section %s matched %d", section, len(got))
		}
	}
	for _, r := range Regions {
		if got := xpath.Eval(xpath.MustParse("/site/regions/"+r+"/item"), doc); len(got) == 0 {
			t.Fatalf("region %s has no items", r)
		}
	}
	if got := xpath.Eval(xpath.MustParse("//person"), doc); len(got) == 0 {
		t.Fatal("no persons")
	}
	if got := xpath.Eval(xpath.MustParse("//open_auction/bidder"), doc); len(got) == 0 {
		t.Fatal("no bidders")
	}
}

func TestGenDeterministic(t *testing.T) {
	a := Gen(Config{TargetBytes: 16 << 10, Seed: 7})
	b := Gen(Config{TargetBytes: 16 << 10, Seed: 7})
	if !xmltree.Equal(a, b) {
		t.Fatal("same seed produced different documents")
	}
	c := Gen(Config{TargetBytes: 16 << 10, Seed: 8})
	if xmltree.Equal(a, c) {
		t.Fatal("different seeds produced identical documents")
	}
}

func TestGenSizeDial(t *testing.T) {
	small := Gen(Config{TargetBytes: 8 << 10, Seed: 1})
	large := Gen(Config{TargetBytes: 64 << 10, Seed: 1})
	if small.ByteSize() < 8<<10 {
		t.Fatalf("small = %d bytes, below target", small.ByteSize())
	}
	if large.ByteSize() < 8*small.ByteSize()/2 {
		t.Fatalf("size dial not scaling: small=%d large=%d", small.ByteSize(), large.ByteSize())
	}
	// Size overshoot is bounded by one entity (< 2KB).
	if small.ByteSize() > 8<<10+2048 {
		t.Fatalf("small overshoots: %d", small.ByteSize())
	}
}

func TestGenParsesAndRoundTrips(t *testing.T) {
	doc := Gen(Config{TargetBytes: 8 << 10, Seed: 3})
	doc2, err := xmltree.ParseString(doc.Name, doc.String())
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(doc, doc2) {
		t.Fatal("generated document does not round trip")
	}
}

func TestQueriesAllParseAndMatch(t *testing.T) {
	doc := Gen(Config{TargetBytes: 64 << 10, Seed: 2})
	matched := 0
	for _, qs := range Queries() {
		q, err := xpath.Parse(qs)
		if err != nil {
			t.Fatalf("query %q does not parse: %v", qs, err)
		}
		if len(xpath.Eval(q, doc)) > 0 {
			matched++
		}
	}
	// Most queries must hit data on a reasonably sized document.
	if matched < len(Queries())*3/4 {
		t.Fatalf("only %d/%d queries matched", matched, len(Queries()))
	}
}

func TestUpdatesApply(t *testing.T) {
	doc := Gen(Config{TargetBytes: 32 << 10, Seed: 4})
	g := dataguide.Build(doc)
	rng := rand.New(rand.NewSource(9))
	for kind := UpdateKind(0); kind < numUpdateKinds; kind++ {
		u := MakeUpdate(kind, int64(kind)*100, rng)
		if err := u.Validate(); err != nil {
			t.Fatalf("update %d invalid: %v", kind, err)
		}
		rec, targets, err := xupdate.Apply(u, doc, g)
		if err != nil {
			t.Fatalf("update %d failed: %v", kind, err)
		}
		if len(targets) == 0 {
			t.Fatalf("update %d matched nothing: %s", kind, u)
		}
		_ = rec
	}
}

func TestGenFragmentsForPartialReplication(t *testing.T) {
	doc := Gen(Config{TargetBytes: 64 << 10, Seed: 5})
	frags, err := replica.FragmentDocument(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	min, max := frags[0].Size, frags[0].Size
	for _, f := range frags[1:] {
		if f.Size < min {
			min = f.Size
		}
		if f.Size > max {
			max = f.Size
		}
	}
	// "all sites have similar volumes of data": the top-level sections are
	// few and uneven, so allow a generous but bounded spread.
	if float64(max) > 4*float64(min) {
		t.Fatalf("fragments too uneven: min=%d max=%d", min, max)
	}
}

// Property: MakeUpdate yields a valid update for any kind and seed, and
// every query of the read mix parses.
func TestPropertyRandomWorkloadValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := MakeUpdate(UpdateKind(rng.Intn(int(numUpdateKinds))), seed, rng)
		if err := u.Validate(); err != nil {
			return false
		}
		qs := Queries()
		if _, err := xpath.Parse(qs[rng.Intn(len(qs))]); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
