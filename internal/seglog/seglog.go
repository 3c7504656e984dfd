// Package seglog is the append-only segment log under both stores
// (internal/evstore, internal/histstore): a directory of numbered data
// files, each its Format's 8-byte magic followed by frames of
//
//	uint32le payload length | uint32le CRC32-Castagnoli(payload) | payload
//
// and each sealed by a JSON sidecar index. The envelope — magic, length
// and checksum — is this package's alone: a store chooses its magic and
// writes payloads, and a file under another magic is refused at open.
// The package owns everything that is the same whatever the payload
// means — naming and numbering, write buffering, rotation, sealing,
// recovery, retention and the one frame reader, which parses frames in
// place from a reusable read window — and knows nothing of what a
// payload holds. A store describes its files with a Format, supplies
// its sidecar type as the Log's type parameter, and drives the log
// record by record through a Writer; the log never calls the store per
// record.
//
// Durability contract: frames are buffered and written through every
// flushEvery records, on rotation and on Close. A sidecar is written
// only after its segment's data is flushed and the file closed, so a
// present sidecar certifies a cleanly sealed segment and is trusted
// without re-reading the data. After a failed write the bytes that did
// reach the file leave the buffer, so a retry continues the frame
// sequence instead of repeating it; a seal whose flush, close or
// sidecar write fails writes no sidecar and forgets the segment. A
// data file without a trusted sidecar is re-scanned by the next open,
// and the newest one — the only one a dead writer can have torn — is
// cut back to its valid frame prefix, the loss reported by Recovered.
package seglog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	// MagicLen is the length of every segment magic.
	MagicLen = 8
	// FrameHeaderLen is the length and checksum in front of each payload.
	FrameHeaderLen = 8
)

// Format describes one family of segment files. Each store holds one
// as a package-level value; nothing in it is tunable at run time.
type Format struct {
	Name     string // error prefix: "evstore"
	Noun     string // what a directory of these is called in messages: "store"
	Prefix   string // data files are Prefix + %08d + DataExt
	DataExt  string
	IndexExt string // a sidecar is its data file's name with IndexExt for DataExt
	Magic    string // MagicLen bytes opening every data file
	MaxFrame int    // payload bound: a larger length prefix is corruption
	ReadBuf  int    // read-window size of a Scratch
}

// IndexPath returns the sidecar path of a data file.
func (f *Format) IndexPath(dataPath string) string {
	return strings.TrimSuffix(dataPath, f.DataExt) + f.IndexExt
}

func (f *Format) wrap(err error) error { return fmt.Errorf("%s: %w", f.Name, err) }

// castagnoli is the frame checksum's table; amd64 and arm64 compute
// CRC32-Castagnoli with dedicated instructions.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// FillHeader completes a frame encoded in place: buf[start:] is
// FrameHeaderLen reserved bytes followed by the payload.
func FillHeader(buf []byte, start int) {
	payload := buf[start+FrameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// ScanResult reports what reading a segment found: how much of it was
// a valid frame sequence and how much trailing corruption, if any, was
// left unread.
type ScanResult struct {
	ValidBytes int64 // length of the valid prefix including the magic
	// TailLossBytes is how many trailing bytes were unreadable —
	// non-zero only when Truncated is set and the size was known.
	TailLossBytes int64
	Truncated     bool
	// Reason describes the first bad frame when Truncated.
	Reason string
}

// Scratch is the reusable state of the frame reader: one byte window,
// Format.ReadBuf long, that frames are parsed in place from. Reusing one
// across the segments of a pass keeps the pass at O(1) buffers; a nil
// *Scratch means "allocate fresh". A Scratch serves one Format.
type Scratch struct {
	win []byte
}

// window is the frame reader's view of its stream: buf[lo:hi] has been
// read and not yet parsed. err is the first error the reader returned;
// after it the reader is not called again, so an error ends the stream
// once the bytes read before it are parsed.
type window struct {
	r      io.Reader
	buf    []byte
	lo, hi int
	limit  int // the longest buf may grow: one header and MaxFrame payload
	err    error
}

// need reports whether the next n bytes of the stream are in
// buf[lo:lo+n], reading only when they are not all there yet.
func (w *window) need(n int) bool {
	return w.hi-w.lo >= n || w.fill(n)
}

// fill makes room for n bytes from lo — moving the unparsed bytes to
// the front, or growing the window for a frame larger than itself — and
// reads until they are in or the reader fails.
func (w *window) fill(n int) bool {
	if n > len(w.buf) {
		grown := make([]byte, min(max(2*len(w.buf), n), w.limit))
		w.hi = copy(grown, w.buf[w.lo:w.hi])
		w.buf, w.lo = grown, 0
	} else if w.lo+n > len(w.buf) {
		w.hi = copy(w.buf, w.buf[w.lo:w.hi])
		w.lo = 0
	}
	for w.hi-w.lo < n && w.err == nil {
		var m int
		m, w.err = w.r.Read(w.buf[w.hi:])
		w.hi += m
	}
	return w.hi-w.lo >= n
}

// ReadFrames reads a segment byte stream, handing fn each checksummed
// payload in order. The payload is a slice of the read window, only
// valid during the call. fn returns a non-empty reject to declare the
// payload undecodable, or an error to abort the read after the frame.
// Corruption — a bad magic, an absurd length, a checksum failure, a
// short final frame, a rejected payload — is never an error: the read
// stops at the first bad frame and the result records the valid prefix
// and the reason. size is the stream length if known (for tail-loss
// accounting), or -1. This is the only frame-reading loop there is.
//
// Frames are parsed where they lie in the window, which is refilled
// from r only when the next header or payload is not all inside it and
// grows only for a frame longer than itself, up to MaxFrame plus its
// header.
func (f *Format) ReadFrames(r io.Reader, size int64, sc *Scratch, fn func(payload []byte) (reject string, err error)) (ScanResult, error) {
	var res ScanResult
	if sc == nil {
		sc = &Scratch{}
	}
	if len(sc.win) < f.ReadBuf {
		sc.win = make([]byte, f.ReadBuf)
	}
	w := window{r: r, buf: sc.win, limit: max(f.ReadBuf, f.MaxFrame+FrameHeaderLen)}
	defer func() { sc.win = w.buf }() // keep a grown window for the next segment
	truncate := func(reason string) (ScanResult, error) {
		res.Truncated = true
		res.Reason = reason
		if size >= 0 {
			res.TailLossBytes = size - res.ValidBytes
		}
		return res, nil
	}

	if !w.need(MagicLen) {
		return truncate("missing magic")
	}
	if string(w.buf[w.lo:w.lo+MagicLen]) != f.Magic {
		return truncate("bad magic")
	}
	w.lo += MagicLen
	res.ValidBytes = MagicLen

	for {
		if !w.need(FrameHeaderLen) {
			if w.lo == w.hi && w.err == io.EOF {
				return res, nil // clean end of segment
			}
			return truncate("short frame header")
		}
		claimed := binary.LittleEndian.Uint32(w.buf[w.lo:])
		sum := binary.LittleEndian.Uint32(w.buf[w.lo+4:])
		if claimed == 0 || claimed > uint32(f.MaxFrame) {
			return truncate("implausible frame length")
		}
		end := FrameHeaderLen + int(claimed)
		if !w.need(end) {
			return truncate("short frame payload")
		}
		// Capped at its own end, so an append by fn cannot overwrite
		// the frames after it.
		payload := w.buf[w.lo+FrameHeaderLen : w.lo+end : w.lo+end]
		w.lo += end
		if crc32.Checksum(payload, castagnoli) != sum {
			return truncate("checksum mismatch")
		}
		reject, err := fn(payload)
		if reject != "" {
			return truncate(reject)
		}
		res.ValidBytes += int64(end)
		if err != nil {
			return res, err
		}
	}
}

// OpenData opens a segment data file for reading and reports its
// length, the size ReadFrames accounts tail loss against.
func OpenData(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// Index is what the log asks of a store's sidecar type: whether a
// sidecar decoded from disk is of a schema this build trusts. One that
// is not is rebuilt from the segment data, exactly as a missing one.
type Index interface{ Trusted() bool }

// Segment describes one sealed, readable segment.
type Segment[I Index] struct {
	N     int // segment number; read order is ascending N
	Path  string
	Index I
}

// TailLoss records corruption found, and by a writer cut off, while
// opening.
type TailLoss struct {
	Segment   string
	LostBytes int64
	Reason    string
}

// fileOps is every operation by which the log lists or changes its
// directory. The indirection exists for this package's own
// fault-enumeration test, which fails or stops each operation in turn;
// nothing else assigns ops.
type fileOps struct {
	glob         func(pattern string) ([]string, error)
	create       func(path string) (*os.File, error)
	write        func(f *os.File, p []byte) (int, error)
	close        func(f *os.File) error
	writeSidecar func(path string, data []byte) error
	truncate     func(path string, size int64) error
	remove       func(path string) error
}

var ops = fileOps{
	glob: filepath.Glob,
	create: func(path string) (*os.File, error) {
		return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	},
	write:        (*os.File).Write,
	close:        (*os.File).Close,
	writeSidecar: func(path string, data []byte) error { return os.WriteFile(path, data, 0o644) },
	truncate:     os.Truncate,
	remove:       os.Remove,
}

// Log is a segment log rooted at one directory. Its methods are the
// ones any holder may call, and a store exposes them by embedding;
// appending goes through the Writer. All are safe for concurrent use.
type Log[I Index] struct {
	f            *Format
	dir          string
	readOnly     bool
	segmentBytes int64
	flushEvery   int

	mu        sync.Mutex
	sealed    []Segment[I]
	nextN     int
	recovered []TailLoss
	err       error // first append, flush or seal failure; sticky

	// The active segment: file is nil between a seal and the next Begin.
	file      *os.File
	n         int
	path      string
	pending   []byte // frames not yet written through
	bytes     int64  // magic + frames appended, written through or not
	unflushed int
}

// Rebuild reconstructs a segment's sidecar by reading its data — the
// store's part of opening, since only it can decode a payload.
type Rebuild[I Index] func(path string) (I, ScanResult, error)

// Open creates or opens a directory for appending. A data file under
// another magic than the Format's fails the open, which then changes
// nothing. A segment whose sidecar is missing, unreadable or untrusted
// is re-indexed by rebuild and its sidecar written; the newest segment
// is also truncated at its first bad frame, with the loss reported by
// Recovered. Appends always start a fresh segment, so recovery never
// rewrites sealed data. A segment is sealed once its bytes reach
// segmentBytes.
func Open[I Index](f *Format, dir string, segmentBytes int64, flushEvery int, rebuild Rebuild[I]) (*Log[I], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, f.wrap(err)
	}
	l := &Log[I]{f: f, dir: dir, segmentBytes: segmentBytes, flushEvery: flushEvery}
	return l.scan(rebuild)
}

// OpenRead opens an existing directory without ever changing it. A data
// file under another magic than the Format's fails it; missing sidecars
// are rebuilt in memory only, and a torn newest segment is reported by
// Recovered but not truncated (ReadFrames stops at the first bad frame
// regardless). A reader that wrote a sidecar for a live writer's active
// segment would freeze a stale index over it and mask the writer's own
// crash recovery. Appending to and compacting a read-only log fail.
func OpenRead[I Index](f *Format, dir string, rebuild Rebuild[I]) (*Log[I], error) {
	if st, err := os.Stat(dir); err != nil {
		return nil, f.wrap(err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("%s: %s is not a %s directory", f.Name, dir, f.Noun)
	}
	l := &Log[I]{f: f, dir: dir, readOnly: true}
	return l.scan(rebuild)
}

// scan lists the directory, checks every data file's magic and then
// loads or rebuilds every sidecar: a foreign file is refused before
// anything is truncated or written.
func (l *Log[I]) scan(rebuild Rebuild[I]) (*Log[I], error) {
	f := l.f
	paths, err := ops.glob(filepath.Join(l.dir, f.Prefix+"*"+f.DataExt))
	if err != nil {
		return nil, f.wrap(err)
	}
	l.nextN = 1
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), f.Prefix+"%d"+f.DataExt, &n); err != nil {
			continue // not ours
		}
		if err := f.checkMagic(p); err != nil {
			return nil, err
		}
		l.sealed = append(l.sealed, Segment[I]{N: n, Path: p})
	}
	sort.Slice(l.sealed, func(i, j int) bool { return l.sealed[i].N < l.sealed[j].N })

	for i := range l.sealed {
		seg := &l.sealed[i]
		l.nextN = seg.N + 1
		if data, err := os.ReadFile(f.IndexPath(seg.Path)); err == nil &&
			json.Unmarshal(data, &seg.Index) == nil && seg.Index.Trusted() {
			continue
		}
		ix, res, err := rebuild(seg.Path)
		if err != nil {
			return nil, fmt.Errorf("%s: rebuild %s: %w", f.Name, seg.Path, err)
		}
		seg.Index = ix
		if res.Truncated && i == len(l.sealed)-1 {
			// Only the newest segment can hold a torn append from a dead
			// writer. A writer cuts it off so new frames never land after
			// garbage; a reader just reports it.
			if !l.readOnly {
				if err := ops.truncate(seg.Path, res.ValidBytes); err != nil {
					return nil, fmt.Errorf("%s: truncate %s: %w", f.Name, seg.Path, err)
				}
			}
			l.recovered = append(l.recovered, TailLoss{
				Segment: seg.Path, LostBytes: res.TailLossBytes, Reason: res.Reason,
			})
		}
		if !l.readOnly {
			if err := l.writeSidecar(seg.Path, ix); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// checkMagic refuses a data file that opens with another magic than
// f's. A file shorter than MagicLen is a torn create, which recovery
// handles like any other torn tail.
func (f *Format) checkMagic(path string) error {
	file, err := os.Open(path)
	if err != nil {
		return f.wrap(err)
	}
	defer file.Close()
	var head [MagicLen]byte
	if _, err := io.ReadFull(file, head[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	} else if err != nil {
		return f.wrap(err)
	}
	if string(head[:]) != f.Magic {
		return fmt.Errorf("%s: unsupported segment magic %q in %s", f.Name, head[:], path)
	}
	return nil
}

func (l *Log[I]) writeSidecar(dataPath string, ix I) error {
	data, err := json.Marshal(ix)
	if err == nil {
		err = ops.writeSidecar(l.f.IndexPath(dataPath), data)
	}
	if err != nil {
		return l.f.wrap(err)
	}
	return nil
}

// Dir returns the log's root directory.
func (l *Log[I]) Dir() string { return l.dir }

// Recovered reports the corrupt tail found (and, by a writer, cut off)
// while opening.
func (l *Log[I]) Recovered() []TailLoss {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TailLoss(nil), l.recovered...)
}

// Segments returns the sealed, readable segments in read order. The
// active segment (appends since opening) is excluded until sealed by
// rotation or the store's Close.
func (l *Log[I]) Segments() []Segment[I] {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Segment[I](nil), l.sealed...)
}

// Err returns the first append, flush or seal error, or nil.
func (l *Log[I]) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Sync writes buffered frames through to the OS without sealing,
// which makes them visible to a concurrent OpenRead.
func (l *Log[I]) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = l.flush()
	}
	return l.err
}

// Compact enforces retention: it deletes the oldest sealed segments
// (data and sidecar) so that at most keep remain, and returns how many
// were removed. The active segment is untouched. keep < 0 is an error;
// keep == 0 drops all sealed segments. Removal is oldest-first and
// each segment's sidecar goes before its data, so a crash
// mid-compaction leaves at worst an orphan data file that the next
// Open re-indexes — never a sidecar without data.
func (l *Log[I]) Compact(keep int) (int, error) {
	if keep < 0 {
		return 0, fmt.Errorf("%s: negative retention %d", l.f.Name, keep)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.readOnly {
		return 0, l.errReadOnly()
	}
	drop := len(l.sealed) - keep
	if drop <= 0 {
		return 0, nil
	}
	for i, seg := range l.sealed[:drop] {
		err := ops.remove(l.f.IndexPath(seg.Path))
		if err == nil || os.IsNotExist(err) {
			err = ops.remove(seg.Path)
		}
		if err != nil {
			l.sealed = l.sealed[i:]
			return i, l.f.wrap(err)
		}
	}
	l.sealed = append([]Segment[I](nil), l.sealed[drop:]...)
	return drop, nil
}

func (l *Log[I]) errReadOnly() error {
	return fmt.Errorf("%s: store opened read-only", l.f.Name)
}

// flush writes the buffered frames through to the file: one write per
// flushEvery records, not per record. What a failed write did put in
// the file is dropped from the buffer, so that a retry — the store's
// Close makes one — continues the frame sequence where the file ends.
func (l *Log[I]) flush() error {
	if l.file == nil || len(l.pending) == 0 {
		return nil
	}
	n, err := ops.write(l.file, l.pending)
	if err != nil {
		l.pending = l.pending[:copy(l.pending, l.pending[n:])]
		return l.f.wrap(err)
	}
	l.pending = l.pending[:0]
	l.unflushed = 0
	return nil
}

// Writer is the append side of a Log, which the store that opened the
// log keeps to itself. An append is Lock, then per record Begin, the
// store's own encoding onto the buffer Begin returned, and End — with
// Seal whenever End reports the segment full — then Unlock; the store's
// Close is Lock, Seal, Unlock.
type Writer[I Index] struct{ l *Log[I] }

// WriterOf returns l's append side. It is a function, not a method, so
// that a store embedding *Log does not hand it to its own callers.
func WriterOf[I Index](l *Log[I]) Writer[I] { return Writer[I]{l} }

// Lock takes the log's lock and returns the sticky error; whatever it
// returns, the caller holds the lock and must Unlock.
func (w Writer[I]) Lock() error {
	w.l.mu.Lock()
	return w.l.err
}

// Unlock releases the log's lock.
func (w Writer[I]) Unlock() { w.l.mu.Unlock() }

// Fail makes err the sticky error unless one is set already, and
// returns the sticky error. The store reports a failed append here;
// every later append fails alike, so a torn recording never passes
// for a complete one.
func (w Writer[I]) Fail(err error) error {
	if w.l.err == nil {
		w.l.err = err
	}
	return w.l.err
}

// Active reports whether a segment is open for appending.
func (w Writer[I]) Active() bool { return w.l.file != nil }

// Begin returns the write buffer to append the next record's frames to,
// first creating the next segment when none is active. fresh reports
// that it did: the store resets its per-segment codec and index state.
// A store that fails to encode simply does not call End, and the buffer
// keeps its old length.
func (w Writer[I]) Begin() (buf []byte, fresh bool, err error) {
	l := w.l
	if l.readOnly {
		return nil, false, l.errReadOnly()
	}
	if l.file == nil {
		path := filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", l.f.Prefix, l.nextN, l.f.DataExt))
		file, err := ops.create(path)
		if err != nil {
			return nil, false, l.f.wrap(err)
		}
		if _, err := ops.write(file, []byte(l.f.Magic)); err != nil {
			ops.close(file)
			return nil, false, l.f.wrap(err)
		}
		l.file, l.n, l.path = file, l.nextN, path
		l.nextN++
		l.pending, l.bytes, l.unflushed = l.pending[:0], MagicLen, 0
		fresh = true
	}
	return l.pending, fresh, nil
}

// End takes back the buffer Begin handed out, now one record longer,
// flushes on the flushEvery cadence and reports whether the segment
// has reached segmentBytes and is to be sealed.
func (w Writer[I]) End(buf []byte) (full bool, err error) {
	l := w.l
	l.bytes += int64(len(buf) - len(l.pending))
	l.pending = buf
	l.unflushed++
	if l.unflushed >= l.flushEvery {
		if err := l.flush(); err != nil {
			return false, err
		}
	}
	return l.bytes >= l.segmentBytes, nil
}

// Seal flushes and closes the active segment, writes ix as its
// sidecar and retires it to the readable set; without an active
// segment it does nothing. It runs whatever the sticky error, retrying
// a failed flush, and returns the sticky error. When the flush, the
// close or the sidecar write fails there is no sidecar and the segment
// is forgotten: the file is closed either way and the next Open
// re-scans it.
func (w Writer[I]) Seal(ix I) error {
	l := w.l
	if l.file == nil {
		return l.err
	}
	err := l.flush()
	if cerr := ops.close(l.file); err == nil && cerr != nil {
		err = l.f.wrap(cerr)
	}
	l.file = nil
	if err == nil {
		err = l.writeSidecar(l.path, ix)
	}
	if err != nil {
		return w.Fail(err)
	}
	l.sealed = append(l.sealed, Segment[I]{N: l.n, Path: l.path, Index: ix})
	return l.err
}
