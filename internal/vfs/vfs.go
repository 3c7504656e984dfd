// Package vfs implements the virtual content filesystem backing the
// simulated Jupyter server: files, directories, and notebooks with
// checkpoints, quotas, and a change journal.
//
// The contents API is the primary asset surface in the paper's threat
// model — training data and notebooks live here, and ransomware and
// exfiltration act through it. All mutations are reported to a trace
// sink so detectors see every file operation, and checkpoints provide
// the recovery path the ransomware-response example exercises.
package vfs

import (
	"errors"
	"fmt"
	"math"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Entry types.
const (
	TypeFile      = "file"
	TypeDirectory = "directory"
	TypeNotebook  = "notebook"
)

// maxJournal caps the retained journal entries; older ones are dropped.
const maxJournal = 100000

// Errors returned by filesystem operations.
var (
	ErrNotFound      = errors.New("vfs: not found")
	ErrExists        = errors.New("vfs: already exists")
	ErrIsDirectory   = errors.New("vfs: is a directory")
	ErrNotDirectory  = errors.New("vfs: not a directory")
	ErrDirNotEmpty   = errors.New("vfs: directory not empty")
	ErrQuotaExceeded = errors.New("vfs: quota exceeded")
	ErrNoCheckpoint  = errors.New("vfs: no such checkpoint")
	ErrBadPath       = errors.New("vfs: invalid path")
)

// Node is one filesystem entry.
type Node struct {
	Path     string
	Type     string
	Content  []byte
	Created  time.Time
	Modified time.Time
	Writable bool
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	out := *n
	out.Content = append([]byte(nil), n.Content...)
	return &out
}

// Checkpoint is a saved copy of a file's content.
type Checkpoint struct {
	ID      string
	Path    string
	Content []byte
	Taken   time.Time
}

// FS is an in-memory hierarchical filesystem. The zero value is not
// usable; call New.
type FS struct {
	mu          sync.RWMutex
	nodes       map[string]*Node // canonical path -> node
	checkpoints map[string][]Checkpoint
	clock       trace.Clock
	sink        trace.Sink
	quota       int64 // total content bytes; 0 = unlimited
	used        int64
	journal     []Change
}

// Change is one journal entry describing a mutation.
type Change struct {
	Seq     int
	Time    time.Time
	Op      string // "create" | "write" | "delete" | "rename" | "restore"
	Path    string
	NewPath string // rename only
	Bytes   int
	Entropy float64 // entropy of written content
	User    string
}

// Option configures an FS.
type Option func(*FS)

// WithClock sets the clock.
func WithClock(c trace.Clock) Option { return func(f *FS) { f.clock = c } }

// WithSink sets the trace sink receiving file_op events.
func WithSink(s trace.Sink) Option { return func(f *FS) { f.sink = s } }

// WithQuota caps total stored bytes.
func WithQuota(bytes int64) Option { return func(f *FS) { f.quota = bytes } }

// New returns an empty filesystem with a root directory.
func New(opts ...Option) *FS {
	f := &FS{
		nodes:       map[string]*Node{},
		checkpoints: map[string][]Checkpoint{},
		clock:       trace.RealClock{},
		sink:        trace.Discard,
	}
	for _, o := range opts {
		o(f)
	}
	now := f.clock.Now()
	f.nodes[""] = &Node{Path: "", Type: TypeDirectory, Created: now, Modified: now, Writable: true}
	return f
}

// Clean canonicalizes a content path: forward slashes, no leading
// slash, no dot segments. Rejects traversal outside the root.
func Clean(p string) (string, error) {
	orig := p
	p = strings.TrimPrefix(strings.ReplaceAll(p, "\\", "/"), "/")
	cleaned := path.Clean(p)
	if cleaned == "." {
		return "", nil
	}
	if cleaned == ".." || strings.HasPrefix(cleaned, "../") {
		return "", fmt.Errorf("%w: %q escapes root", ErrBadPath, orig)
	}
	return cleaned, nil
}

func typeForPath(p string) string {
	if strings.HasSuffix(p, ".ipynb") {
		return TypeNotebook
	}
	return TypeFile
}

func (f *FS) emit(op, target, user string, bytes int, entropy float64, ok bool, detail string) {
	f.sink.Emit(trace.Event{
		Kind: trace.KindFileOp, Op: op, Target: target, User: user,
		Bytes: int64(bytes), Entropy: entropy, Success: ok, Detail: detail,
	})
}

func (f *FS) journalAdd(c Change) {
	c.Seq = len(f.journal) + 1
	c.Time = f.clock.Now()
	f.journal = append(f.journal, c)
	if len(f.journal) > maxJournal {
		f.journal = f.journal[len(f.journal)-maxJournal:]
	}
}

// Mkdir creates a directory and any missing parents.
func (f *FS) Mkdir(p string) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mkdirLocked(cp)
}

func (f *FS) mkdirLocked(cp string) error {
	if cp == "" {
		return nil
	}
	if n, ok := f.nodes[cp]; ok {
		if n.Type == TypeDirectory {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrExists, cp)
	}
	parent := path.Dir(cp)
	if parent == "." {
		parent = ""
	}
	if err := f.mkdirLocked(parent); err != nil {
		return err
	}
	now := f.clock.Now()
	f.nodes[cp] = &Node{Path: cp, Type: TypeDirectory, Created: now, Modified: now, Writable: true}
	return nil
}

// Write stores content at path, creating parents as needed. user is
// recorded for attribution in the journal and trace events.
func (f *FS) Write(p, user string, content []byte) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	if cp == "" {
		return fmt.Errorf("%w: cannot write root", ErrIsDirectory)
	}
	ent := Entropy(content)
	f.mu.Lock()
	defer f.mu.Unlock()
	existing, exists := f.nodes[cp]
	if exists && existing.Type == TypeDirectory {
		f.emit("write", cp, user, len(content), ent, false, "is a directory")
		return fmt.Errorf("%w: %s", ErrIsDirectory, cp)
	}
	delta := int64(len(content))
	if exists {
		delta -= int64(len(existing.Content))
	}
	if f.quota > 0 && f.used+delta > f.quota {
		f.emit("write", cp, user, len(content), ent, false, "quota exceeded")
		return fmt.Errorf("%w: %s", ErrQuotaExceeded, cp)
	}
	parent := path.Dir(cp)
	if parent == "." {
		parent = ""
	}
	if err := f.mkdirLocked(parent); err != nil {
		f.emit("write", cp, user, len(content), ent, false, err.Error())
		return err
	}
	now := f.clock.Now()
	op := "write"
	if !exists {
		op = "create"
		f.nodes[cp] = &Node{Path: cp, Type: typeForPath(cp), Created: now, Writable: true}
	}
	n := f.nodes[cp]
	n.Content = append([]byte(nil), content...)
	n.Modified = now
	f.used += delta
	f.journalAdd(Change{Op: op, Path: cp, Bytes: len(content), Entropy: ent, User: user})
	f.emit(op, cp, user, len(content), ent, true, "")
	return nil
}

// Read returns a copy of the file content.
func (f *FS) Read(p, user string) ([]byte, error) {
	cp, err := Clean(p)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	n, ok := f.nodes[cp]
	f.mu.RUnlock()
	if !ok {
		f.emit("read", cp, user, 0, 0, false, "not found")
		return nil, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	if n.Type == TypeDirectory {
		f.emit("read", cp, user, 0, 0, false, "is a directory")
		return nil, fmt.Errorf("%w: %s", ErrIsDirectory, cp)
	}
	f.emit("read", cp, user, len(n.Content), 0, true, "")
	return append([]byte(nil), n.Content...), nil
}

// Stat returns a copy of the node metadata (content included).
func (f *FS) Stat(p string) (*Node, error) {
	cp, err := Clean(p)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, ok := f.nodes[cp]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	return n.Clone(), nil
}

// Exists reports whether a path exists.
func (f *FS) Exists(p string) bool {
	cp, err := Clean(p)
	if err != nil {
		return false
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, ok := f.nodes[cp]
	return ok
}

// List returns the immediate children of a directory, sorted by path.
func (f *FS) List(p string) ([]*Node, error) {
	cp, err := Clean(p)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	dir, ok := f.nodes[cp]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	if dir.Type != TypeDirectory {
		return nil, fmt.Errorf("%w: %s", ErrNotDirectory, cp)
	}
	prefix := cp
	if prefix != "" {
		prefix += "/"
	}
	var out []*Node
	for np, n := range f.nodes {
		if np == cp || !strings.HasPrefix(np, prefix) {
			continue
		}
		if strings.Contains(np[len(prefix):], "/") {
			continue
		}
		out = append(out, n.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Walk returns every non-directory node under root (inclusive of
// nested directories), sorted by path.
func (f *FS) Walk(root string) ([]*Node, error) {
	cp, err := Clean(root)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	prefix := cp
	if prefix != "" {
		prefix += "/"
	}
	var out []*Node
	for np, n := range f.nodes {
		if n.Type == TypeDirectory {
			continue
		}
		if cp == "" || np == cp || strings.HasPrefix(np, prefix) {
			out = append(out, n.Clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Delete removes a file or empty directory.
func (f *FS) Delete(p, user string) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	if cp == "" {
		return fmt.Errorf("%w: cannot delete root", ErrBadPath)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[cp]
	if !ok {
		f.emit("delete", cp, user, 0, 0, false, "not found")
		return fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	if n.Type == TypeDirectory {
		prefix := cp + "/"
		for np := range f.nodes {
			if strings.HasPrefix(np, prefix) {
				f.emit("delete", cp, user, 0, 0, false, "not empty")
				return fmt.Errorf("%w: %s", ErrDirNotEmpty, cp)
			}
		}
	}
	f.used -= int64(len(n.Content))
	delete(f.nodes, cp)
	f.journalAdd(Change{Op: "delete", Path: cp, User: user})
	f.emit("delete", cp, user, 0, 0, true, "")
	return nil
}

// Rename moves a file to a new path.
func (f *FS) Rename(oldP, newP, user string) error {
	co, err := Clean(oldP)
	if err != nil {
		return err
	}
	cn, err := Clean(newP)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[co]
	if !ok {
		f.emit("rename", co, user, 0, 0, false, "not found")
		return fmt.Errorf("%w: %s", ErrNotFound, co)
	}
	if _, exists := f.nodes[cn]; exists {
		f.emit("rename", co, user, 0, 0, false, "target exists")
		return fmt.Errorf("%w: %s", ErrExists, cn)
	}
	if n.Type == TypeDirectory {
		return fmt.Errorf("%w: directory rename unsupported: %s", ErrIsDirectory, co)
	}
	parent := path.Dir(cn)
	if parent == "." {
		parent = ""
	}
	if err := f.mkdirLocked(parent); err != nil {
		return err
	}
	delete(f.nodes, co)
	n.Path = cn
	n.Type = typeForPath(cn)
	n.Modified = f.clock.Now()
	f.nodes[cn] = n
	f.checkpoints[cn] = append(f.checkpoints[cn], f.checkpoints[co]...)
	delete(f.checkpoints, co)
	f.journalAdd(Change{Op: "rename", Path: co, NewPath: cn, User: user})
	f.emit("rename", co, user, 0, 0, true, "-> "+cn)
	return nil
}

// CreateCheckpoint saves the current content of a file.
func (f *FS) CreateCheckpoint(p string) (Checkpoint, error) {
	cp, err := Clean(p)
	if err != nil {
		return Checkpoint{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[cp]
	if !ok || n.Type == TypeDirectory {
		return Checkpoint{}, fmt.Errorf("%w: %s", ErrNotFound, cp)
	}
	ck := Checkpoint{
		ID:      fmt.Sprintf("ckpt-%d", len(f.checkpoints[cp])+1),
		Path:    cp,
		Content: append([]byte(nil), n.Content...),
		Taken:   f.clock.Now(),
	}
	f.checkpoints[cp] = append(f.checkpoints[cp], ck)
	return ck, nil
}

// Checkpoints lists checkpoints for a path, oldest first.
func (f *FS) Checkpoints(p string) ([]Checkpoint, error) {
	cp, err := Clean(p)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]Checkpoint, len(f.checkpoints[cp]))
	copy(out, f.checkpoints[cp])
	return out, nil
}

// RestoreCheckpoint restores a file to a checkpoint's content.
func (f *FS) RestoreCheckpoint(p, id, user string) error {
	cp, err := Clean(p)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ck := range f.checkpoints[cp] {
		if ck.ID == id {
			now := f.clock.Now()
			n, ok := f.nodes[cp]
			if !ok {
				n = &Node{Path: cp, Type: typeForPath(cp), Created: now, Writable: true}
				f.nodes[cp] = n
			}
			f.used += int64(len(ck.Content)) - int64(len(n.Content))
			n.Content = append([]byte(nil), ck.Content...)
			n.Modified = now
			f.journalAdd(Change{Op: "restore", Path: cp, Bytes: len(ck.Content), User: user})
			f.emit("restore", cp, user, len(ck.Content), 0, true, id)
			return nil
		}
	}
	return fmt.Errorf("%w: %s on %s", ErrNoCheckpoint, id, cp)
}

// Journal returns a copy of the change journal (oldest first).
func (f *FS) Journal() []Change {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]Change, len(f.journal))
	copy(out, f.journal)
	return out
}

// JournalSince returns journal entries with Seq > seq.
func (f *FS) JournalSince(seq int) []Change {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []Change
	for _, c := range f.journal {
		if c.Seq > seq {
			out = append(out, c)
		}
	}
	return out
}

// Used returns the total stored content bytes.
func (f *FS) Used() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.used
}

// Count returns the number of non-directory entries.
func (f *FS) Count() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, node := range f.nodes {
		if node.Type != TypeDirectory {
			n++
		}
	}
	return n
}

// Entropy computes the Shannon entropy of data in bits per byte.
// Encrypted or compressed content approaches 8.0; text sits well
// below — the signal the ransomware and exfiltration detectors use.
func Entropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	total := float64(len(data))
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / total
		h -= p * math.Log2(p)
	}
	return h
}
