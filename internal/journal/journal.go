// Package journal provides the write-ahead log behind site crash
// recovery. A site appends critical events — its program, accepted
// mobility operations, handled deliveries — and periodically compacts
// the log down to a checkpoint of its serialized heap and run-queue.
// After a crash the supervisor replays checkpoint + tail to rebuild
// the exact pre-crash state (see internal/site/recovery.go for the
// record payloads and DESIGN.md §9 for the protocol).
//
// Stores are pluggable: MemFactory keeps logs in process memory (the
// in-process cluster's default — it survives a *site* or *node*
// restart because the cluster owns the factory), FileFactory persists
// one log file per site. Record payloads are opaque here; the journal
// only guarantees ordered, atomic-enough storage.
package journal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Kind tags a record's payload format. The meanings live in the site
// layer; the journal just preserves them.
type Kind uint8

// Record is one journal entry.
type Record struct {
	Kind Kind
	Data []byte
}

// Store is one site's ordered log.
type Store interface {
	// Append adds a record at the tail, durably for the store's
	// failure model (file stores survive process death; memory stores
	// survive site/node restarts within the owning process).
	Append(rec Record) error
	// Replace atomically substitutes the whole log — the compaction
	// primitive: a checkpoint plus the still-relevant tail replaces
	// everything before it.
	Replace(recs []Record) error
	// Records returns the current log, oldest first. The result must
	// not be mutated.
	Records() ([]Record, error)
	// Close releases resources. The log remains recoverable via the
	// factory that opened it.
	Close() error
}

// Factory opens per-site stores by name. Opening an existing name
// returns a store holding the previous incarnation's records — that
// is the recovery path.
type Factory interface {
	Open(name string) (Store, error)
	// List returns the names with existing logs.
	List() ([]string, error)
}

// ------------------------------------------------------------- scoped

// Scoped namespaces a factory under a prefix: a cluster hands each
// node Scoped(f, "n3") so same-named sites on different nodes keep
// distinct logs in one backing store.
func Scoped(f Factory, prefix string) Factory {
	return &scopedFactory{f: f, prefix: prefix + "/"}
}

type scopedFactory struct {
	f      Factory
	prefix string
}

func (s *scopedFactory) Open(name string) (Store, error) {
	return s.f.Open(s.prefix + name)
}

func (s *scopedFactory) List() ([]string, error) {
	all, err := s.f.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, name := range all {
		if rest, ok := strings.CutPrefix(name, s.prefix); ok {
			out = append(out, rest)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- mem

// MemFactory keeps journals in process memory, keyed by site name.
// The zero value is ready to use.
type MemFactory struct {
	mu   sync.Mutex
	logs map[string]*memLog
}

type memLog struct {
	mu   sync.Mutex
	recs []Record
}

// NewMemFactory returns an empty in-memory journal factory.
func NewMemFactory() *MemFactory { return &MemFactory{} }

// Open returns the named log, creating it if absent.
func (f *MemFactory) Open(name string) (Store, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.logs == nil {
		f.logs = map[string]*memLog{}
	}
	l, ok := f.logs[name]
	if !ok {
		l = &memLog{}
		f.logs[name] = l
	}
	return &memStore{log: l}, nil
}

// List returns the names of existing logs.
func (f *MemFactory) List() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for name := range f.logs {
		out = append(out, name)
	}
	return out, nil
}

type memStore struct{ log *memLog }

func (s *memStore) Append(rec Record) error {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	// Copy the payload: callers reuse encode buffers.
	data := make([]byte, len(rec.Data))
	copy(data, rec.Data)
	s.log.recs = append(s.log.recs, Record{Kind: rec.Kind, Data: data})
	return nil
}

func (s *memStore) Replace(recs []Record) error {
	fresh := make([]Record, len(recs))
	for i, rec := range recs {
		data := make([]byte, len(rec.Data))
		copy(data, rec.Data)
		fresh[i] = Record{Kind: rec.Kind, Data: data}
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.log.recs = fresh
	return nil
}

func (s *memStore) Records() ([]Record, error) {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	out := make([]Record, len(s.log.recs))
	copy(out, s.log.recs)
	return out, nil
}

func (s *memStore) Close() error { return nil }

// --------------------------------------------------------------- file

// FileFactory persists one log file per site under Dir. The on-disk
// format is a flat sequence of [kind byte][uvarint length][data]
// records (AppendFramed). Each Append is one write, so a crash tears at
// most the last record, and Records drops a torn record whole — however
// many records its caller packed into it. Replace writes a temp file
// and renames it over the log, so a crash during compaction leaves
// either the old or the new log.
//
// Appends are buffered through the OS (no fsync): the failure model is
// process death, not machine death — matching the paper's runtime,
// where a site is a Unix process.
type FileFactory struct {
	Dir string
}

// NewFileFactory returns a factory rooted at dir, creating it if
// needed.
func NewFileFactory(dir string) (*FileFactory, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &FileFactory{Dir: dir}, nil
}

const fileExt = ".wal"

// fileName maps a site name to a safe file name.
func fileName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			fmt.Fprintf(&b, "%%%04x", r)
		}
	}
	return b.String() + fileExt
}

// Open returns the named log, creating its file if absent.
func (f *FileFactory) Open(name string) (Store, error) {
	path := filepath.Join(f.Dir, fileName(name))
	file, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &fileStore{path: path, f: file}, nil
}

// List returns the site names with existing log files.
func (f *FileFactory) List() ([]string, error) {
	ents, err := os.ReadDir(f.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []string
	for _, e := range ents {
		base, ok := strings.CutSuffix(e.Name(), fileExt)
		if !ok || e.IsDir() {
			continue
		}
		// Undo the %xxxx escapes.
		var b strings.Builder
		for i := 0; i < len(base); {
			if base[i] == '%' && i+5 <= len(base) {
				var r rune
				if _, err := fmt.Sscanf(base[i+1:i+5], "%04x", &r); err == nil {
					b.WriteRune(r)
					i += 5
					continue
				}
			}
			b.WriteByte(base[i])
			i++
		}
		out = append(out, b.String())
	}
	return out, nil
}

type fileStore struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	scratch []byte // reused append-encoding buffer, guarded by mu
}

// AppendFramed appends rec to buf in the file store's framing:
// [kind byte][uvarint length][data].
func AppendFramed(buf []byte, rec Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Data)))
	return append(buf, rec.Data...)
}

// NextFramed parses the record AppendFramed wrote at the head of data
// and returns it with the bytes after it. The record's data sub-slices
// data. ok is false when data does not start with a whole record.
func NextFramed(data []byte) (rec Record, rest []byte, ok bool) {
	if len(data) == 0 {
		return Record{}, data, false
	}
	n, w := binary.Uvarint(data[1:])
	if w <= 0 || n > uint64(len(data)-1-w) {
		return Record{}, data, false
	}
	end := 1 + w + int(n)
	return Record{Kind: Kind(data[0]), Data: data[1+w : end : end]}, data[end:], true
}

func (s *fileStore) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("journal: store %s is closed", s.path)
	}
	s.scratch = AppendFramed(s.scratch[:0], rec)
	if _, err := s.f.Write(s.scratch); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return nil
}

func (s *fileStore) Replace(recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	for _, rec := range recs {
		buf = AppendFramed(buf, rec)
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Reopen so subsequent appends hit the new inode.
	if s.f != nil {
		_ = s.f.Close()
		f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: compact: %w", err)
		}
		s.f = f
	}
	return nil
}

func (s *fileStore) Records() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var out []Record
	for len(data) > 0 {
		rec, rest, ok := NextFramed(data)
		if !ok {
			// A torn tail record (crash mid-append) is dropped: the
			// write-ahead discipline means its effects never happened.
			return out, nil
		}
		out = append(out, rec)
		data = rest
	}
	return out, nil
}

func (s *fileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

var _ io.Closer = (Store)(nil)
