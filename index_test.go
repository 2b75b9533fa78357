package dtx

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func indexTestXML() string {
	var b strings.Builder
	b.WriteString("<people>")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "<person><id>%d</id><name>n%d</name><emailaddress>e%d@x</emailaddress></person>", i, i, i)
	}
	b.WriteString("</people>")
	return b.String()
}

// TestValueIndexQueriesMatchScan runs the same mixed query/update stream
// against an indexed and an unindexed cluster; results must be identical,
// and only the indexed cluster may count indexed queries.
func TestValueIndexQueriesMatchScan(t *testing.T) {
	run := func(t *testing.T, keys []string) ([][]string, int64) {
		t.Helper()
		c, err := New(Config{Sites: 2, IndexedKeys: keys})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.LoadXML("d1", indexTestXML()); err != nil {
			t.Fatal(err)
		}
		var out [][]string
		for i := 0; i < 10; i++ {
			res, err := c.Submit(i%2,
				Query("d1", fmt.Sprintf("//person[id='%d']/name", i*3)),
				Change("d1", fmt.Sprintf("//person[id='%d']/name", i*3), fmt.Sprintf("renamed%d", i)),
				Query("d1", fmt.Sprintf("//person[name='renamed%d']/emailaddress", i)),
				Query("d1", fmt.Sprintf("//person[id>='%d'][id<'%d']/name", i, i+3)),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed {
				t.Fatalf("txn %d: %s (%s)", i, res.State, res.Reason)
			}
			out = append(out, res.Results...)
		}
		var indexed int64
		for site := 0; site < c.Sites(); site++ {
			indexed += count(t, c, site, "dtx_indexed_queries_total")
		}
		return out, indexed
	}

	scan, scanIdx := run(t, nil)
	indexed, idxCount := run(t, []string{"id", "name"})
	if !reflect.DeepEqual(scan, indexed) {
		t.Fatalf("indexed cluster diverged from scan cluster:\nscan:    %v\nindexed: %v", scan, indexed)
	}
	if scanIdx != 0 {
		t.Fatalf("unindexed cluster reported %d indexed queries", scanIdx)
	}
	if idxCount == 0 {
		t.Fatal("indexed cluster answered nothing from its indexes")
	}
}

// TestValueIndexSnapshotRead: a read-only transaction pinned before a write
// keeps seeing the pre-write value through the versioned index view, while
// a transaction pinned after the write sees the new value.
func TestValueIndexSnapshotRead(t *testing.T) {
	c, err := New(Config{Sites: 2, IndexedKeys: []string{"id", "name"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", indexTestXML()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const lookup = "//person[id='7']/name"

	ro, err := c.BeginReadOnly(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ro.Query("d1", lookup)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0] != "n7" {
		t.Fatalf("pre-write snapshot read = %v", before)
	}

	// A writer commits between the snapshot's two reads.
	res, err := c.Submit(1, Change("d1", lookup, "changed"))
	if err != nil || !res.Committed {
		t.Fatalf("writer: %v %+v", err, res)
	}
	c.Sync()

	again, err := ro.Query("d1", lookup)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, before) {
		t.Fatalf("snapshot read moved: first %v then %v", before, again)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot pins the post-write version.
	ro2, err := c.BeginReadOnly(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ro2.Query("d1", lookup)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0] != "changed" {
		t.Fatalf("post-write snapshot read = %v", after)
	}
	if err := ro2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Both the pinned and the fresh read should have been index-served.
	var indexed int64
	for site := 0; site < c.Sites(); site++ {
		indexed += count(t, c, site, "dtx_indexed_queries_total")
	}
	if indexed < 2 {
		t.Fatalf("indexed snapshot reads = %d, want >= 2", indexed)
	}
}

// TestValueIndexConcurrentReads: lock-free snapshot readers use a site's
// value index while writers change indexed values and a second document is
// installed. The key set is fixed by vindex.New before a document is
// published, so readers share it without a lock; run under -race.
func TestValueIndexConcurrentReads(t *testing.T) {
	c, err := New(Config{Sites: 2, IndexedKeys: []string{"id", "name"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadXML("d1", indexTestXML()); err != nil {
		t.Fatal(err)
	}
	const lookup = "//person[id='7']/emailaddress"
	ctx := context.Background()
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(site int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, doc := range []string{"d1", "d2"} {
					ro, err := c.BeginReadOnly(ctx, site)
					if err != nil {
						t.Error(err)
						return
					}
					got, err := ro.Query(doc, lookup)
					// d2 may not be installed yet; once it is, it must answer.
					if err == nil && (len(got) != 1 || got[0] != "e7@x") {
						t.Errorf("%s at site %d: %s = %v", doc, site, lookup, got)
					}
					_ = ro.Abort() // the outcome of a read-only transaction is irrelevant here
				}
			}
		}(r % 2)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				target := fmt.Sprintf("//person[id='%d']/name", 20*w+i)
				if _, err := c.Submit(w, Change("d1", target, fmt.Sprintf("w%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	if err := c.LoadXML("d2", indexTestXML()); err != nil {
		t.Error(err)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	var indexed int64
	for site := 0; site < c.Sites(); site++ {
		indexed += count(t, c, site, "dtx_indexed_queries_total")
	}
	if indexed == 0 {
		t.Fatal("no read was answered from a value index")
	}
}
