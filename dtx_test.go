package dtx

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

const peopleXML = `<people><person><id>4</id><name>Ana</name></person></people>`

// count reads one of a site's counters by name; a name the site never
// registered fails the test.
func count(t testing.TB, c *Cluster, site int, name string) int64 {
	t.Helper()
	reg, err := c.Metrics(site)
	if err != nil {
		t.Fatal(err)
	}
	n, err := reg.Count(name)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestClusterQuickstart(t *testing.T) {
	c, err := New(Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Sites() != 2 {
		t.Fatalf("sites = %d", c.Sites())
	}
	if err := c.LoadXML("d1", peopleXML); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(0,
		Query("d1", "//person[id='4']/name"),
		Insert("d1", "/people", Into, Elem("person", "",
			Elem("id", "22"), Elem("name", "Patricia")).WithAttr("vip", "yes")),
		Query("d1", "//person/name"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.State != "committed" {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Results[0]) != 1 || res.Results[0][0] != "Ana" {
		t.Fatalf("query results = %v", res.Results[0])
	}
	if len(res.Results[2]) != 2 {
		t.Fatalf("post-insert results = %v", res.Results[2])
	}
	// Replicated at both sites.
	for site := 0; site < 2; site++ {
		xml, err := c.DocumentXML(site, "d1")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(xml, "Patricia") || !strings.Contains(xml, `vip="yes"`) {
			t.Fatalf("site %d missing insert:\n%s", site, xml)
		}
	}
	if got := c.SitesOf("d1"); len(got) != 2 {
		t.Fatalf("SitesOf = %v", got)
	}
	if n := count(t, c, 0, "dtx_txns_committed_total"); n != 1 {
		t.Fatalf("committed = %d, want 1", n)
	}
}

func TestClusterAllOps(t *testing.T) {
	c, err := New(Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.LoadXML("d2", `<products>
		<product><id>1</id><name>a</name><price>5</price></product>
		<product><id>2</id><name>b</name><price>6</price></product>
	</products>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(0,
		Change("d2", "//product[id='1']/price", "9.99"),
		ChangeAttr("d2", "/products", "version", "2"),
		Rename("d2", "//product[id='2']/name", "title"),
		Transpose("d2", "//product[id='1']", "//product[id='2']"),
		Remove("d2", "//product[id='1']/price"),
		Query("d2", "/products/product[1]/title"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("state = %s (%s)", res.State, res.Reason)
	}
	// After transpose, product 2 (with renamed title) is first.
	if len(res.Results[5]) != 1 || res.Results[5][0] != "b" {
		t.Fatalf("final query = %v", res.Results[5])
	}
	xml, _ := c.DocumentXML(0, "d2")
	if !strings.Contains(xml, `version="2"`) || strings.Contains(xml, "9.99") {
		t.Fatalf("final doc wrong:\n%s", xml)
	}
}

func TestClusterPartialReplication(t *testing.T) {
	c, err := New(Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frags, err := c.LoadXMLPartial("base", `<root>
		<a><x>1</x></a><b><x>2</x></b><c><x>3</x></c><d><x>4</x></d>
	</root>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("fragments = %v", frags)
	}
	// Each fragment lives at exactly one site.
	for i, f := range frags {
		sites := c.SitesOf(f)
		if len(sites) != 1 || sites[i%1] != i {
			t.Fatalf("fragment %s at sites %v", f, sites)
		}
	}
	// A transaction from site 0 can read a fragment held only at site 1.
	res, err := c.Submit(0, Query(frags[1], "//x"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || len(res.Results[0]) == 0 {
		t.Fatalf("cross-site read failed: %+v", res)
	}
}

func TestClusterProtocols(t *testing.T) {
	for _, proto := range []Protocol{XDGL, Node2PL, DocLock} {
		c, err := New(Config{Sites: 1, Protocol: proto})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if err := c.LoadXML("d", peopleXML); err != nil {
			t.Fatal(err)
		}
		res, err := c.Submit(0, Query("d", "//person"))
		if err != nil || !res.Committed {
			t.Fatalf("%s: %v %+v", proto, err, res)
		}
		c.Close()
	}
	if _, err := New(Config{Protocol: "nope"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
}

func TestClusterFileStore(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Sites: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadXML("d1", peopleXML); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(0, Insert("d1", "/people", Into, Elem("person", "", Elem("id", "9"))))
	if err != nil || !res.Committed {
		t.Fatalf("%v %+v", err, res)
	}
	c.Close()
	// A fresh cluster over the same directory sees the committed state.
	c2, err := New(Config{Sites: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Wire the stored document into memory.
	if _, err := c2.sites[0].LoadDocument("d1"); err != nil {
		t.Fatal(err)
	}
	c2.catalog.Place("d1", 0)
	r, err := c2.Submit(0, Query("d1", "//person/id"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results[0]) != 2 {
		t.Fatalf("persisted state lost: %v", r.Results[0])
	}
}

func TestClusterValidation(t *testing.T) {
	c, err := New(Config{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d", "<bad"); err == nil {
		t.Error("malformed XML accepted")
	}
	if err := c.LoadXML("d", peopleXML, 7); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := c.Submit(9, Query("d", "/x")); err == nil {
		t.Error("out-of-range coordinator accepted")
	}
	if _, err := c.DocumentXML(9, "d"); err == nil {
		t.Error("out-of-range DocumentXML accepted")
	}
	if _, err := c.Metrics(9); err == nil {
		t.Error("out-of-range Metrics accepted")
	}
	if _, err := c.CheckDeadlocks(9); err == nil {
		t.Error("out-of-range CheckDeadlocks accepted")
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	c, err := New(Config{Sites: 2, DeadlockCheckInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", peopleXML); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	commits := make(chan struct{}, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				res, err := c.Submit(i%2,
					Insert("d1", "/people", Into, Elem("person", "", Elem("id", "x"))))
				switch {
				case err == nil && res.Committed:
					commits <- struct{}{}
					return
				case errors.Is(err, ErrAborted):
					// Deadlock victim or transient abort: resubmit, as the
					// paper leaves that decision to the client.
				default:
					t.Errorf("unexpected outcome: %v %+v", err, res)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(commits)
	n := 0
	for range commits {
		n++
	}
	if n != 16 {
		t.Fatalf("commits = %d", n)
	}
	// Replicas converge.
	x0, _ := c.DocumentXML(0, "d1")
	x1, _ := c.DocumentXML(1, "d1")
	if x0 != x1 {
		t.Fatal("replicas diverged")
	}
	if strings.Count(x0, "<person>") != 17 {
		t.Fatalf("person count = %d", strings.Count(x0, "<person>"))
	}
}

func TestClusterJournal(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Sites: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadXML("d1", peopleXML); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(0, Insert("d1", "/people", Into, Elem("person", "", Elem("id", "9"))))
	if err != nil || !res.Committed {
		t.Fatalf("%v %+v", err, res)
	}
	c.Close()
	journal, err := store.OpenJournal(dir + "/site0/commit.log")
	if err != nil {
		t.Fatal(err)
	}
	open := journal.OpenIntents()
	journal.Close()
	if len(open) != 0 {
		t.Fatalf("clean shutdown left open intents: %+v", open)
	}
}
