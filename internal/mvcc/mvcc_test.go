package mvcc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/txn"
	"repro/internal/xmltree"
)

func doc(t testing.TB, label string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString("v", fmt.Sprintf("<root><v>%s</v></root>", label))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestPublishPinOrdering(t *testing.T) {
	c := NewChain(Options{})
	if v := c.Pin(100); v != nil {
		t.Fatalf("pin on empty chain returned %v", v)
	}
	// Only the head survives unpinned: hold the older two for their readers.
	a := c.PublishPinned(doc(t, "a"), 2)
	b := c.PublishPinned(doc(t, "b"), 5)
	c.Publish(doc(t, "c"), 9)

	cases := []struct {
		ts   txn.TS
		want txn.TS
		ok   bool
	}{
		{1, 0, false}, // older than everything retained
		{2, 2, true},
		{4, 2, true},
		{5, 5, true},
		{8, 5, true},
		{9, 9, true},
		{100, 9, true},
	}
	for _, tc := range cases {
		v := c.Pin(tc.ts)
		if !tc.ok {
			if v != nil {
				t.Errorf("Pin(%d) = version %d, want nil", tc.ts, v.TS)
			}
			continue
		}
		if v == nil || v.TS != tc.want {
			t.Errorf("Pin(%d) = %v, want version %d", tc.ts, v, tc.want)
			continue
		}
		c.Unpin(v)
	}
	c.Unpin(a)
	c.Unpin(b)
	if n := c.Len(); n != 1 {
		t.Fatalf("chain = %d versions with no pins, want the head alone", n)
	}
}

// TestPinHeadAdvanceInsert: the head serves a reader directly only while it
// reflects every commit and is not newer than the reader; a state published
// for an older reader slots in below the head, and is handed out pinned.
func TestPinHeadAdvanceInsert(t *testing.T) {
	c := NewChain(Options{})
	if v := c.PinHead(9); v != nil {
		t.Fatal("empty chain has no head to pin")
	}
	c.Publish(doc(t, "a"), 3)
	if v := c.PinHead(2); v != nil {
		t.Fatal("head newer than the reader must not be pinned")
	}
	v := c.PinHead(3)
	if v == nil || v.TS != 3 {
		t.Fatalf("PinHead(3) = %v, want version 3", v)
	}
	c.Unpin(v)
	c.Advance(7)
	if v := c.PinHead(9); v != nil {
		t.Fatal("Advance past the head must stop PinHead serving it")
	}
	c.Publish(doc(t, "b"), 7)
	if c.Publish(doc(t, "again"), 7) {
		t.Fatal("publish at a timestamp the chain holds must be dropped")
	}
	// A plain publish below the head retires at once; a pinned one survives
	// for its reader and sits in timestamp order.
	c.Publish(doc(t, "plain"), 4)
	if got := c.Pin(4); got != nil {
		t.Fatalf("unpinned version below the head survived: Pin(4) = version %d", got.TS)
	}
	old := c.PublishPinned(doc(t, "older"), 5)
	if got := c.Pin(6); got != old {
		t.Fatalf("Pin(6) = %v, want the version published at 5", got)
	}
	if h := c.Pin(100); h == nil || h.TS != 7 {
		t.Fatalf("head = %v, want version 7", h)
	} else {
		c.Unpin(h)
	}
	if same := c.PublishPinned(doc(t, "dup"), 5); same != old {
		t.Fatal("PublishPinned at a held timestamp must return the held version")
	}
	for range 3 {
		c.Unpin(old)
	}
	if got := c.Pin(6); got != nil {
		t.Fatalf("released older version survived GC: Pin(6) = version %d", got.TS)
	}
}

// TestGCBoundedUnderPinnedReader: a long reader pinning an old version must
// not make the chain grow — it holds the head and the pinned version only.
func TestGCBoundedUnderPinnedReader(t *testing.T) {
	c := NewChain(Options{})
	c.Publish(doc(t, "old"), 1)
	pinned := c.Pin(1)
	if pinned == nil || pinned.TS != 1 {
		t.Fatalf("pin = %v, want version 1", pinned)
	}
	for ts := txn.TS(2); ts <= 200; ts++ {
		c.Publish(doc(t, "new"), ts)
		if n := c.Len(); n > 2 { // the head + the pinned version
			t.Fatalf("chain grew to %d versions under a pinned reader", n)
		}
	}
	// The pinned version must still be reachable at its own timestamp.
	if v := c.Pin(1); v == nil || v.TS != 1 {
		t.Fatalf("pinned version was GC'd: Pin(1) = %v", v)
	}
	c.Unpin(pinned)
	c.Unpin(pinned)
	// Once released, the old version retires on the next GC trigger.
	c.Publish(doc(t, "tail"), 201)
	if v := c.Pin(1); v != nil {
		t.Fatalf("released old version survived GC: Pin(1) = version %d", v.TS)
	}
}

// TestConcurrentPublishPinRetire hammers the chain from publishers, readers
// and an advancing writer at once; run under -race it is the subsystem's
// race test.
func TestConcurrentPublishPinRetire(t *testing.T) {
	c := NewChain(Options{})
	base := doc(t, "seed")
	c.Publish(base, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ts := txn.TS(10 + p)
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Advance(ts)
				c.Publish(base, ts)
				ts += 3
			}
		}(p)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := c.Pin(txn.TS(1 << 30))
				if v == nil {
					t.Error("pin with huge ts found no version")
					return
				}
				if v.Doc == nil {
					t.Error("pinned version without a tree")
				}
				c.Unpin(v)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := c.Len(); n != 1 {
		t.Fatalf("chain retained %d versions after quiescence, want the head alone", n)
	}
}
