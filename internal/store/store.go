// Package store implements DTX's DataManager substrate: the component that
// "recovers XML data from the storage structure, converting it into a proper
// representation structure, and provid[es] means for updating the data in
// the storage structure". The paper used the Sedna native XML DBMS; DTX's
// storage structures are explicitly pluggable ("DTX supports communication
// with any XML document storage method"), so this package provides the same
// interface with two backends: an in-memory store and a file-system store
// (a directory of .xml documents — the paper's site s2 example persists XML
// in a file system).
//
// A stored document is an image: one self-contained, well-formed XML unit
// that names the log index it reflects in a leading processing instruction
// (imageHeader). The Store holds checkpoints; what makes a commit durable is
// the Journal.
package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// Store is the persistence interface DTX's DataManager drives.
type Store interface {
	// List returns the names of the stored documents, sorted.
	List() ([]string, error)
	// Load retrieves and parses a document image and the log index it
	// reflects: 0 for an image without a header (a hand-seeded file). A
	// header that is damaged, misplaced or repeated is an error — reading it
	// as 0 would replay the journal onto an image that already holds it.
	Load(name string) (*xmltree.Document, int64, error)
	// SaveAt persists the document under its name as the image reflecting
	// its log up to index, replacing any previous image in one step.
	SaveAt(doc *xmltree.Document, index int64) error
	// Delete removes a document. Deleting a missing document is an error.
	Delete(name string) error
}

// imageTag opens the header line of a stored image, `<?dtx-index N?>`: a
// processing instruction, so the file stays one well-formed XML document
// that any parser (xmltree.Parse included) reads as the bare tree.
const imageTag = "<?dtx-index "

func imageHeader(index int64) string {
	return imageTag + strconv.FormatInt(index, 10) + "?>\n"
}

// writeImage serialises the document behind the header of its index.
func writeImage(w io.Writer, doc *xmltree.Document, index int64) error {
	if _, err := io.WriteString(w, imageHeader(index)); err != nil {
		return err
	}
	_, err := doc.WriteTo(w)
	return err
}

// decodeImage parses a stored image. The index is only ever read from a
// header in exactly the form imageHeader writes, at offset 0; the tag
// anywhere else fails the load.
func decodeImage(name string, data []byte) (*xmltree.Document, int64, error) {
	var index int64
	if rest, ok := bytes.CutPrefix(data, []byte(imageTag)); ok {
		digits, body, _ := bytes.Cut(rest, []byte("?>\n"))
		n, err := strconv.ParseInt(string(digits), 10, 64)
		if err != nil || n < 0 || !bytes.HasPrefix(data, []byte(imageHeader(n))) {
			return nil, 0, fmt.Errorf("store: %s: damaged image header %q", name, data[:min(len(data), 48)])
		}
		index, data = n, body
	}
	if bytes.Contains(data, []byte(imageTag)) {
		return nil, 0, fmt.Errorf("store: %s: image header misplaced or repeated", name)
	}
	doc, err := xmltree.Parse(name, bytes.NewReader(data))
	return doc, index, err
}

// NotFoundError reports a missing document.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("store: document %q not found", e.Name)
}

// MemStore is an in-memory Store. Safe for concurrent use. The zero value
// is ready to use.
type MemStore struct {
	mu   sync.RWMutex
	docs map[string][]byte
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// List implements Store.
func (s *MemStore) List() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for name := range s.docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Load implements Store.
func (s *MemStore) Load(name string) (*xmltree.Document, int64, error) {
	s.mu.RLock()
	data, ok := s.docs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, &NotFoundError{Name: name}
	}
	return decodeImage(name, data)
}

// SaveAt implements Store.
func (s *MemStore) SaveAt(doc *xmltree.Document, index int64) error {
	var buf bytes.Buffer
	if err := writeImage(&buf, doc, index); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.docs == nil {
		s.docs = make(map[string][]byte)
	}
	s.docs[doc.Name] = buf.Bytes()
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; !ok {
		return &NotFoundError{Name: name}
	}
	delete(s.docs, name)
	return nil
}

// FileStore persists documents as .xml files in a directory. Document names
// map to file names; names with path separators are rejected.
type FileStore struct {
	dir string
}

// NewFileStore creates (if needed) and opens a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (s *FileStore) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("store: invalid document name %q", name)
	}
	return filepath.Join(s.dir, name+".xml"), nil
}

// List implements Store.
func (s *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		out = append(out, strings.TrimSuffix(e.Name(), ".xml"))
	}
	sort.Strings(out)
	return out, nil
}

// Load implements Store.
func (s *FileStore) Load(name string) (*xmltree.Document, int64, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, 0, &NotFoundError{Name: name}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	return decodeImage(name, data)
}

// Save is SaveAt for a document with no log behind it.
func (s *FileStore) Save(doc *xmltree.Document) error { return s.SaveAt(doc, 0) }

// SaveAt implements Store. Document and index go through one temp file and
// one rename, so a crash leaves the previous image or the new one, each
// whole and at the index it names.
func (s *FileStore) SaveAt(doc *xmltree.Document, index int64) error {
	p, err := s.path(doc.Name)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := writeImage(tmp, doc, index); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Delete implements Store.
func (s *FileStore) Delete(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); os.IsNotExist(err) {
		return &NotFoundError{Name: name}
	} else if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
