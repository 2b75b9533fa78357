// Package store implements DTX's DataManager substrate: the component that
// "recovers XML data from the storage structure, converting it into a proper
// representation structure, and provid[es] means for updating the data in
// the storage structure". The paper used the Sedna native XML DBMS; DTX's
// storage structures are explicitly pluggable ("DTX supports communication
// with any XML document storage method"), so this package provides the same
// interface with two backends: an in-memory store and a file-system store
// (a directory of .xml documents — the paper's site s2 example persists XML
// in a file system).
package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// Store is the persistence interface DTX's DataManager drives.
type Store interface {
	// List returns the names of the stored documents, sorted.
	List() ([]string, error)
	// Load retrieves and parses a document.
	Load(name string) (*xmltree.Document, error)
	// Save persists the document under its name, replacing any previous
	// version.
	Save(doc *xmltree.Document) error
	// Delete removes a document. Deleting a missing document is an error.
	Delete(name string) error
	// SaveMeta persists a small metadata blob next to the document of that
	// name, replacing any previous value — a checkpoint records there the
	// log index the saved document reflects.
	SaveMeta(name, data string) error
	// LoadMeta retrieves a metadata blob; ok is false when none was saved.
	LoadMeta(name string) (data string, ok bool, err error)
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
	meta map[string]string
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
func (s *MemStore) Load(name string) (*xmltree.Document, error) {
	s.mu.RLock()
	data, ok := s.docs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, &NotFoundError{Name: name}
	}
	return xmltree.Parse(name, bytes.NewReader(data))
}

// Save implements Store.
func (s *MemStore) Save(doc *xmltree.Document) error {
	var buf bytes.Buffer
	if _, err := doc.WriteTo(&buf); err != nil {
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

// SaveMeta implements Store.
func (s *MemStore) SaveMeta(name, data string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.meta == nil {
		s.meta = make(map[string]string)
	}
	s.meta[name] = data
	return nil
}

// LoadMeta implements Store.
func (s *MemStore) LoadMeta(name string) (string, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.meta[name]
	return data, ok, nil
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
func (s *FileStore) Load(name string) (*xmltree.Document, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if os.IsNotExist(err) {
		return nil, &NotFoundError{Name: name}
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return xmltree.Parse(name, f)
}

// Save implements Store. The write goes through a temp file + rename so a
// crash never leaves a half-written document.
func (s *FileStore) Save(doc *xmltree.Document) error {
	p, err := s.path(doc.Name)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := doc.WriteTo(tmp); err != nil {
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

// SaveMeta implements Store: the blob lands in <name>.meta via the same
// temp + rename discipline as Save, so a crash never leaves a torn value.
func (s *FileStore) SaveMeta(name, data string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	p = strings.TrimSuffix(p, ".xml") + ".meta"
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(data); err != nil {
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

// LoadMeta implements Store.
func (s *FileStore) LoadMeta(name string) (string, bool, error) {
	p, err := s.path(name)
	if err != nil {
		return "", false, err
	}
	p = strings.TrimSuffix(p, ".xml") + ".meta"
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("store: %w", err)
	}
	return string(data), true, nil
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
