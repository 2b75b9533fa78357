package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/xmltree"
)

func testStore(t *testing.T, s Store) {
	t.Helper()
	// Empty store.
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("fresh store lists %v", names)
	}
	if _, _, err := s.Load("missing"); err == nil {
		t.Fatal("expected not-found")
	} else {
		var nf *NotFoundError
		if !errors.As(err, &nf) {
			t.Fatalf("want NotFoundError, got %T: %v", err, err)
		}
	}
	// Save and load round trip.
	doc, err := xmltree.ParseString("d1", `<people><person id="p1"><name>Ana</name></person></people>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAt(doc, 17); err != nil {
		t.Fatal(err)
	}
	got, idx, err := s.Load("d1")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(doc, got) || idx != 17 {
		t.Fatalf("round trip mismatch (index %d, want 17)", idx)
	}
	// Overwrite: image and index are replaced together.
	doc2, _ := xmltree.ParseString("d1", `<people/>`)
	if err := s.SaveAt(doc2, 18); err != nil {
		t.Fatal(err)
	}
	got, idx, err = s.Load("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Root.Children) != 0 || idx != 18 {
		t.Fatalf("overwrite did not replace (index %d, want 18)", idx)
	}
	// List.
	doc3, _ := xmltree.ParseString("a0", `<x/>`)
	if err := s.SaveAt(doc3, 0); err != nil {
		t.Fatal(err)
	}
	names, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a0" || names[1] != "d1" {
		t.Fatalf("list = %v", names)
	}
	// Delete.
	if err := s.Delete("a0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a0"); err == nil {
		t.Fatal("double delete succeeded")
	}
	names, _ = s.List()
	if len(names) != 1 {
		t.Fatalf("list after delete = %v", names)
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore())
}

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir() + "/docs")
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, fs)
}

func TestFileStoreRejectsBadNames(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	doc := xmltree.NewDocument("../evil", "r")
	if err := fs.Save(doc); err == nil {
		t.Fatal("path traversal name accepted")
	}
	if _, _, err := fs.Load(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmltree.ParseString("d", `<r><a>1</a></r>`)
	if err := fs1.Save(doc); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, idx, err := fs2.Load("d")
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(doc, got) || idx != 0 {
		t.Fatal("document lost across reopen")
	}
}

func TestMemStoreConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			doc, _ := xmltree.ParseString(name, `<r><v>x</v></r>`)
			for j := 0; j < 50; j++ {
				if err := s.SaveAt(doc, int64(j)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Load(name); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.List(); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// putRaw plants arbitrary bytes as a stored image, the way a hand-seeded
// store directory, a torn disk or an older tool would.
func putRaw(t *testing.T, s Store, name string, data []byte) {
	t.Helper()
	switch s := s.(type) {
	case *MemStore:
		s.mu.Lock()
		if s.docs == nil {
			s.docs = make(map[string][]byte)
		}
		s.docs[name] = data
		s.mu.Unlock()
	case *FileStore:
		if err := os.WriteFile(filepath.Join(s.dir, name+".xml"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func bothStores(t *testing.T) []Store {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return []Store{NewMemStore(), fs}
}

// TestImageHeader: the header of a stored image is untrusted bytes. An image
// without one sits at index 0 — that is how the bench driver, the CI smoke
// and users seed a store; a well-formed one gives its index; anything that
// looks like a header but is not exactly what SaveAt writes, where SaveAt
// writes it, fails the load instead of reading as 0.
func TestImageHeader(t *testing.T) {
	const body = "<r><a>1</a></r>\n"
	for _, tc := range []struct {
		name, data string
		index      int64
		bad        bool
	}{
		{name: "header-less", data: body},
		{name: "xml declaration only", data: `<?xml version="1.0"?>` + "\n" + body},
		{name: "other PI only", data: `<?xml-stylesheet href="a.xsl"?>` + body},
		{name: "index 0", data: imageHeader(0) + body},
		{name: "index 17", data: imageHeader(17) + body, index: 17},
		{name: "largest index", data: imageHeader(math.MaxInt64) + body, index: math.MaxInt64},
		{name: "no newline", data: "<?dtx-index 17?>" + body, bad: true},
		{name: "no digits", data: "<?dtx-index ?>\n" + body, bad: true},
		{name: "negative", data: "<?dtx-index -1?>\n" + body, bad: true},
		{name: "signed", data: "<?dtx-index +5?>\n" + body, bad: true},
		{name: "leading zero", data: "<?dtx-index 05?>\n" + body, bad: true},
		{name: "trailing junk", data: "<?dtx-index 5 ?>\n" + body, bad: true},
		{name: "not a number", data: "<?dtx-index 1x?>\n" + body, bad: true},
		{name: "overflow", data: "<?dtx-index 99999999999999999999?>\n" + body, bad: true},
		{name: "truncated", data: "<?dtx-index 1", bad: true},
		{name: "duplicated", data: imageHeader(3) + imageHeader(3) + body, bad: true},
		{name: "two indices", data: imageHeader(3) + imageHeader(4) + body, bad: true},
		{name: "misplaced after blank", data: "\n" + imageHeader(3) + body, bad: true},
		{name: "misplaced after declaration", data: `<?xml version="1.0"?>` + imageHeader(3) + body, bad: true},
		{name: "misplaced at the end", data: body + imageHeader(3), bad: true},
		{name: "header without document", data: imageHeader(3), bad: true},
	} {
		for _, s := range bothStores(t) {
			putRaw(t, s, "d", []byte(tc.data))
			doc, idx, err := s.Load("d")
			switch {
			case tc.bad && err == nil:
				t.Errorf("%s (%T): loaded at index %d, want an error", tc.name, s, idx)
			case !tc.bad && err != nil:
				t.Errorf("%s (%T): %v", tc.name, s, err)
			case !tc.bad && (idx != tc.index || doc.Root.Name != "r"):
				t.Errorf("%s (%T): index %d root %q, want %d r", tc.name, s, idx, doc.Root.Name, tc.index)
			}
		}
	}
}

// FuzzImageHeader feeds arbitrary bytes through Load on both backends: they
// must agree, an index is only ever read from a header in exactly the form
// SaveAt writes at offset 0, bytes that mention the header tag anywhere else
// never load, and whatever loads survives SaveAt + Load unchanged.
func FuzzImageHeader(f *testing.F) {
	f.Add([]byte("<r/>"))
	f.Add([]byte(imageHeader(0) + "<r/>"))
	f.Add([]byte(imageHeader(64) + "<r><a>1</a></r>\n"))
	f.Add([]byte(imageHeader(64) + imageHeader(64) + "<r/>"))
	f.Add([]byte("<?dtx-index 6 4?>\n<r/>"))
	f.Add([]byte("<?dtx-inde 64?>\n<r/>"))
	f.Add([]byte(`<?xml version="1.0"?>` + imageHeader(1) + "<r/>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		stores := bothStores(t)
		var first int64
		var firstErr error
		for i, s := range stores {
			putRaw(t, s, "d", data)
			doc, idx, err := s.Load("d")
			if i == 0 {
				first, firstErr = idx, err
			} else if idx != first || (err == nil) != (firstErr == nil) {
				t.Fatalf("backends disagree: index %d err %v vs index %d err %v", first, firstErr, idx, err)
			}
			if err != nil {
				continue
			}
			tagged := bytes.Contains(data, []byte(imageTag))
			if idx < 0 || (idx != 0 || tagged) && !(bytes.HasPrefix(data, []byte(imageHeader(idx))) && bytes.Count(data, []byte(imageTag)) == 1) {
				t.Fatalf("index %d read from %q", idx, data[:min(len(data), 64)])
			}
			if err := s.SaveAt(doc, idx); err != nil {
				t.Fatal(err)
			}
			again, idx2, err := s.Load("d")
			if err != nil || idx2 != idx || !xmltree.Equal(doc, again) {
				t.Fatalf("image at index %d does not survive SaveAt+Load: index %d err %v", idx, idx2, err)
			}
		}
	})
}
