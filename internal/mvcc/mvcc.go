// Package mvcc maintains per-document version chains for snapshot reads:
// immutable committed trees stamped with a site-local commit timestamp, a
// pin protocol that keeps a version alive while read-only transactions use
// it, and a bounded GC that retires versions nobody pins.
//
// The chain decouples commit from materialisation. A writer's commit calls
// Advance — an O(1) bump of the chain's commit timestamp that marks the head
// version stale — and the next actor to need a committed tree (a reader
// pinning, or a checkpoint) publishes a fresh snapshot, cut from the live
// document whatever writers are in flight — at the latest commit, or at an
// earlier one for a reader that began before it. That keeps the write path
// free of deep copies while every reader gets exactly the commits at or below
// its timestamp.
package mvcc

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/txn"
	"repro/internal/vindex"
	"repro/internal/xmltree"
)

// Version is one committed state of a document. The tree is immutable: it is
// produced by xmltree.Document.Snapshot and never mutated afterwards, so any
// number of readers may evaluate queries against it without locks.
type Version struct {
	// TS is the timestamp of the newest commit the version reflects; it holds
	// every commit stamped at or below TS and none above.
	TS txn.TS
	// Doc is the immutable committed tree.
	Doc *xmltree.Document

	pins int

	// idx is the version's value index, built lazily by the first indexable
	// snapshot read pinned to this version and immutable afterwards — it is
	// derived solely from the immutable tree, so it is consistent with this
	// version (and stamped by its TS) by construction, no matter how far the
	// live index has advanced.
	idxOnce sync.Once
	idx     *vindex.DocIndex
}

// ValueIndex returns the version's snapshot value index, building it on
// first use from keys() — the live index's enabled-key set at build time.
// Keys enabled after the build are simply absent: reads probing them fall
// back to scanning this version, never to the live index. Safe for
// concurrent use by lock-free readers.
func (v *Version) ValueIndex(keys func() []string) *vindex.DocIndex {
	v.idxOnce.Do(func() {
		v.idx = vindex.BuildDocIndex(v.Doc, keys())
	})
	return v.idx
}

// Options tunes a chain. The zero value is usable.
type Options struct {
	// MaxVersions bounds the number of unpinned versions retained (default
	// 4). Pinned versions are always kept, so the real bound is
	// max(MaxVersions, pinned+1): GC never drops a version a reader holds.
	MaxVersions int
}

// DefaultMaxVersions is the retained-version bound when Options.MaxVersions
// is zero.
const DefaultMaxVersions = 4

// Chain is the version chain of one document. All methods are safe for
// concurrent use. The chain's mutex is a leaf lock: no Chain method calls
// out while holding it.
type Chain struct {
	mu       sync.Mutex
	versions []*Version // ascending TS order; versions[len-1] is the head
	// commitTS is the largest commit timestamp any writer has advanced the
	// chain to. When it exceeds the head version's TS, the head is stale:
	// commits have happened that no published version reflects yet.
	commitTS  txn.TS
	maxKeep   int
	reclaimed int64 // versions retired by gcLocked over the chain's lifetime
}

// NewChain builds an empty chain.
func NewChain(opts Options) *Chain {
	keep := opts.MaxVersions
	if keep <= 0 {
		keep = DefaultMaxVersions
	}
	return &Chain{maxKeep: keep}
}

// Publish installs a committed tree as the version stamped ts, keeping the
// chain in timestamp order: usually as the new head, but a reader that began
// before a newer version was published has an older state cut for it, which
// slots in below. A timestamp the chain already holds is dropped. Returns
// whether the version was installed.
func (c *Chain) Publish(doc *xmltree.Document, ts txn.TS) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, installed := c.insertLocked(doc, ts)
	c.gcLocked()
	return installed
}

// PublishPinned is Publish returning the version stamped ts — the new one, or
// the one already there — pinned, so GC cannot retire it before the caller
// holds it.
func (c *Chain) PublishPinned(doc *xmltree.Document, ts txn.TS) *Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, _ := c.insertLocked(doc, ts)
	v.pins++
	c.gcLocked()
	return v
}

func (c *Chain) insertLocked(doc *xmltree.Document, ts txn.TS) (*Version, bool) {
	if ts > c.commitTS {
		c.commitTS = ts
	}
	i := sort.Search(len(c.versions), func(i int) bool { return c.versions[i].TS >= ts })
	if i < len(c.versions) && c.versions[i].TS == ts {
		return c.versions[i], false
	}
	v := &Version{TS: ts, Doc: doc}
	c.versions = slices.Insert(c.versions, i, v)
	return v, true
}

// Advance records that a commit stamped ts has consolidated into the live
// document. O(1): it only moves the commit timestamp, leaving the head
// version stale until someone publishes a newer snapshot.
func (c *Chain) Advance(ts txn.TS) {
	c.mu.Lock()
	if ts > c.commitTS {
		c.commitTS = ts
	}
	c.mu.Unlock()
}

// PinHead pins the head version when it reflects every commit the chain was
// advanced to and is not newer than ts — it then holds exactly the commits at
// or below ts — and returns nil otherwise. This is the whole pin for a reader
// of a document nobody has written since the last publish.
func (c *Chain) PinHead(ts txn.TS) *Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.versions); n > 0 {
		if h := c.versions[n-1]; h.TS == c.commitTS && h.TS <= ts {
			h.pins++
			return h
		}
	}
	return nil
}

// Pin returns the newest version with TS ≤ ts, incrementing its pin count,
// or nil when no retained version is old enough (the reader's snapshot has
// been GC'd, or nothing is published yet). Callers must pair every
// successful Pin with exactly one Unpin.
func (c *Chain) Pin(ts txn.TS) *Version {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].TS <= ts {
			c.versions[i].pins++
			return c.versions[i]
		}
	}
	return nil
}

// Unpin releases a pin taken by Pin and retires versions the release freed.
func (c *Chain) Unpin(v *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.pins > 0 {
		v.pins--
	}
	c.gcLocked()
}

// Len returns the number of retained versions.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.versions)
}

// Pinned returns the number of retained versions with at least one live pin.
func (c *Chain) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.versions {
		if v.pins > 0 {
			n++
		}
	}
	return n
}

// Reclaimed returns how many versions GC has retired over the chain's
// lifetime — a monotonic counter for observability.
func (c *Chain) Reclaimed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reclaimed
}

// gcLocked retires versions: the head is always kept, pinned versions are
// never dropped, and unpinned non-head versions are dropped oldest-first
// while the chain is over its size bound. A pinned version shields only
// itself — unpinned versions published after it are still eligible — so the
// chain stays bounded by maxKeep plus the number of distinct pinned versions
// even under a long reader.
func (c *Chain) gcLocked() {
	excess := len(c.versions) - c.maxKeep
	if excess <= 0 {
		return
	}
	out := c.versions[:0]
	last := len(c.versions) - 1
	for i, v := range c.versions {
		if i == last || v.pins > 0 || excess <= 0 {
			out = append(out, v)
			continue
		}
		excess--
	}
	c.reclaimed += int64(len(c.versions) - len(out))
	clear(c.versions[len(out):])
	c.versions = out
}
