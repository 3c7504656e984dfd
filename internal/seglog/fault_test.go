package seglog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Fault enumeration. A script is run once to count the file operations
// it performs and then once per (operation, fault): the k-th operation
// fails, fails after half its bytes, or is where the process stops.
// After each, the directory must still be a log that lost nothing it
// had promised — see checkLog for what that means.

type fault int

const (
	failErr   fault = iota // the operation does nothing and returns an error
	failShort              // a write puts half its bytes in the file, then fails
	stop                   // the process dies here; a write has put half its bytes
)

func (f fault) String() string { return [...]string{"error", "short", "stop"}[f] }

var errInjected = errors.New("injected fault")

// stopped is what the stop fault panics with.
type stopped struct{}

// injector wraps the real file operations, numbering them as they
// happen and faulting the one numbered at; every other passes through.
// It tracks open files so that a stopped "process" can have them closed
// for it, as the kernel would.
type injector struct {
	real  fileOps
	at    int
	mode  fault
	n     int
	names []string // names[k] is what operation k was
	open  map[*os.File]bool
}

func newInjector(at int, mode fault) *injector {
	return &injector{real: ops, at: at, mode: mode, open: map[*os.File]bool{}}
}

// hit numbers one operation and reports whether it is the faulted one;
// for the stop fault it does not return.
func (in *injector) hit(name string, beforeStop func()) bool {
	in.names = append(in.names, name)
	in.n++
	if in.n-1 != in.at {
		return false
	}
	if in.mode == stop {
		if beforeStop != nil {
			beforeStop()
		}
		panic(stopped{})
	}
	return true
}

func (in *injector) closeAll() {
	for f := range in.open {
		f.Close()
	}
	in.open = map[*os.File]bool{}
}

func (in *injector) ops() fileOps {
	return fileOps{
		glob: func(pattern string) ([]string, error) {
			if in.hit("glob", nil) {
				return nil, errInjected
			}
			return in.real.glob(pattern)
		},
		create: func(path string) (*os.File, error) {
			if in.hit("create "+filepath.Base(path), nil) {
				return nil, errInjected
			}
			f, err := in.real.create(path)
			if err == nil {
				in.open[f] = true
			}
			return f, err
		},
		write: func(f *os.File, p []byte) (int, error) {
			half := func() { in.real.write(f, p[:len(p)/2]) }
			if in.hit(fmt.Sprintf("write %d bytes to %s", len(p), filepath.Base(f.Name())), half) {
				if in.mode == failShort {
					half()
					return len(p) / 2, errInjected
				}
				return 0, errInjected
			}
			return in.real.write(f, p)
		},
		close: func(f *os.File) error {
			faulted := in.hit("close "+filepath.Base(f.Name()), nil)
			delete(in.open, f)
			if err := in.real.close(f); err != nil || !faulted {
				return err
			}
			return errInjected // like EIO from close(2): the descriptor is gone all the same
		},
		writeSidecar: func(path string, data []byte) error {
			half := func() { in.real.writeSidecar(path, data[:len(data)/2]) }
			if in.hit("write sidecar "+filepath.Base(path), half) {
				if in.mode == failShort {
					half()
				}
				return errInjected
			}
			return in.real.writeSidecar(path, data)
		},
		truncate: func(path string, size int64) error {
			if in.hit("truncate "+filepath.Base(path), nil) {
				return errInjected
			}
			return in.real.truncate(path, size)
		},
		remove: func(path string) error {
			if in.hit("remove "+filepath.Base(path), nil) {
				return errInjected
			}
			return in.real.remove(path)
		},
	}
}

// promise is what a script's run obliges the log to still hold.
type promise struct {
	attempted int  // records 0..attempted-1 were handed to Append, acknowledged or not
	durable   int  // records 0..durable-1 were acknowledged before a Sync or Close returned nil
	compacted bool // Compact was called, so a whole-segment head may be gone
}

const (
	toySegmentBytes = 300
	toyFlushEvery   = 4
	toyRecords      = 45 // enough for the append script to rotate more than twice
)

// appendScript is the writer's life: append across rotations, Sync,
// Compact(1), append some more, Close. Errors are not acted on — a
// pipeline's Emit does not either — only remembered for the promise.
func appendScript(dir string, p *promise) {
	s, err := openToy(dir, toySegmentBytes, toyFlushEvery)
	if err != nil {
		return
	}
	acked := 0
	add := func(upTo int) {
		for p.attempted < upTo {
			p.attempted++ // first: a stop fault never returns from Append
			if s.Append(uint32(p.attempted-1)) == nil {
				acked = p.attempted
			}
		}
	}
	add(toyRecords - 6)
	if s.Sync() == nil {
		p.durable = acked
	}
	p.compacted = true
	s.Compact(1)
	add(toyRecords)
	if s.Close() == nil {
		p.durable = acked
	}
}

// tornDir leaves what a writer killed mid-append leaves, plus a lost
// sidecar in the middle: three sealed segments, the second without its
// sidecar, the third without its sidecar and with half a frame after
// its last whole one. It returns the promise the recovery then owes.
func tornDir(t *testing.T, dir string) promise {
	t.Helper()
	s, err := openToy(dir, toySegmentBytes, toyFlushEvery)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; len(s.Segments()) < 3; n++ {
		if err := s.Append(uint32(n)); err != nil {
			t.Fatal(err)
		}
	}
	segs := s.Segments()
	for _, seg := range segs[1:] {
		if err := os.Remove(toyFormat.IndexPath(seg.Path)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(segs[2].Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, toyPayload(uint32(n)))
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return promise{attempted: n + 1, durable: n}
}

// recoverScript is a writer opening such a directory and going away.
func recoverScript(dir string, _ *promise) {
	if s, err := openToy(dir, toySegmentBytes, toyFlushEvery); err == nil {
		s.Close()
	}
}

func TestFaultEnumeration(t *testing.T) {
	for _, sc := range []struct {
		name    string
		prepare func(t *testing.T, dir string) promise
		script  func(dir string, p *promise)
		wantOps []string // each must be among the operations the script performs
	}{
		{"append", func(*testing.T, string) promise { return promise{} }, appendScript,
			[]string{"glob", "create", "write", "close", "write sidecar", "remove"}},
		{"recover", tornDir, recoverScript,
			[]string{"glob", "truncate", "write sidecar"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			// The clean run: how many operations there are to fault, and
			// where the segments start.
			var names []string
			starts := segmentStarts(t)
			t.Run("clean", func(t *testing.T) {
				dir := t.TempDir()
				p := sc.prepare(t, dir)
				in := newInjector(-1, failErr)
				swapOps(t, in.ops())
				sc.script(dir, &p)
				names = in.names
				all := "\n" + strings.Join(names, "\n")
				for _, want := range sc.wantOps {
					if !strings.Contains(all, "\n"+want) {
						t.Fatalf("the script performs no %q; operations: %q", want, names)
					}
				}
				if sc.name == "append" {
					if p.durable != toyRecords {
						t.Fatalf("clean run made %d of %d records durable", p.durable, toyRecords)
					}
					if rotations := strings.Count(all, "\ncreate ") - 1; rotations < 3 {
						t.Fatalf("the script rotated %d times, want more than two", rotations)
					}
				}
				checkLog(t, dir, p, starts)
			})

			for k := range names {
				for _, mode := range []fault{failErr, failShort, stop} {
					t.Run(fmt.Sprintf("op%d-%s", k, mode), func(t *testing.T) {
						fdsBefore := openDescriptors(t)
						dir := t.TempDir()
						p := sc.prepare(t, dir)
						in := newInjector(k, mode)
						swapOps(t, in.ops())
						func() {
							defer func() {
								if r := recover(); r != nil {
									if _, ok := r.(stopped); !ok {
										panic(r)
									}
									in.closeAll()
								}
							}()
							sc.script(dir, &p)
						}()
						if in.n <= k {
							t.Fatalf("only %d operations happened; clean run: %q", in.n, names)
						}
						t.Logf("fault at %q", in.names[k])
						checkLog(t, dir, p, starts)
						if fds := openDescriptors(t); fds != fdsBefore {
							t.Fatalf("%d descriptors open, %d before the case", fds, fdsBefore)
						}
					})
				}
			}
		})
	}
}

func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// snapshot is a directory's listing with sizes and modification times.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string]string{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = fmt.Sprintf("%d bytes, modified %s", info.Size(), info.ModTime())
	}
	return snap
}

// checkFiles reads the directory with the test's own parser and checks
// what must hold of the files whatever happened: data files are
// numbered without sidecar-only orphans, only the newest may have
// bytes beyond its valid prefix, and every sidecar that parses as a
// trusted one has Bytes equal to its data file's length and counts
// exactly the records a scan of that file decodes. It returns the
// records in order and the bytes beyond valid prefixes; allSealed
// additionally requires every data file to have such a sidecar.
func checkFiles(t *testing.T, dir string, allSealed bool) (seqs []uint32, beyond int64) {
	t.Helper()
	data, _ := filepath.Glob(filepath.Join(dir, "toy-*.dat")) // sorted, and %08d sorts numerically
	sidecars, _ := filepath.Glob(filepath.Join(dir, "toy-*.ix"))
	for _, sc := range sidecars {
		if _, err := os.Stat(strings.TrimSuffix(sc, ".ix") + ".dat"); err != nil {
			t.Fatalf("sidecar %s has no data file", filepath.Base(sc))
		}
	}
	for i, path := range data {
		raw := mustRead(path)
		recs, valid := parseToy(raw)
		seqs = append(seqs, recs...)
		if extra := int64(len(raw)) - valid; extra != 0 {
			if i != len(data)-1 {
				t.Fatalf("%s, not the newest segment, has %d bytes beyond its valid prefix", filepath.Base(path), extra)
			}
			beyond += extra
		}
		var ix toyIndex
		side, err := os.ReadFile(toyFormat.IndexPath(path))
		if err != nil || json.Unmarshal(side, &ix) != nil || !ix.Trusted() {
			if allSealed {
				t.Fatalf("%s has no trusted sidecar (read: %v, content %q)", filepath.Base(path), err, side)
			}
			continue
		}
		if ix.Bytes != int64(len(raw)) || ix.Records != len(recs) {
			t.Fatalf("sidecar of %s certifies %d records in %d bytes; the file holds %d decodable records in %d bytes",
				filepath.Base(path), ix.Records, ix.Bytes, len(recs), len(raw))
		}
	}
	return seqs, beyond
}

// segmentStarts returns the record numbers that begin a segment when
// nothing goes wrong. Rotation depends on bytes alone, so a faulted run
// starts its segments at the same records.
func segmentStarts(t *testing.T) map[uint32]bool {
	t.Helper()
	s, err := openToy(t.TempDir(), toySegmentBytes, toyFlushEvery)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < toyRecords; seq++ {
		if err := s.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	starts := map[uint32]bool{}
	for _, seg := range s.Segments() {
		recs, _ := parseToy(mustRead(seg.Path))
		starts[recs[0]] = true
	}
	return starts
}

// checkLog asserts what a directory must satisfy after a script ran
// over it with or without a fault, given what the run promised.
func checkLog(t *testing.T, dir string, p promise, starts map[uint32]bool) {
	t.Helper()
	// (b) sidecars certify only what the files hold.
	held, beyond := checkFiles(t, dir, false)

	// (a) what is held is one unbroken run of what was appended: it
	// starts at 0 or, once Compact ran, at a segment boundary, and
	// reaches at least as far as was made durable.
	for i, seq := range held {
		if seq != held[0]+uint32(i) {
			t.Fatalf("records are not consecutive: %v", held)
		}
	}
	end := 0
	if len(held) > 0 {
		end = int(held[len(held)-1]) + 1
		if held[0] != 0 && !(p.compacted && starts[held[0]]) {
			t.Fatalf("records start at %d (compacted %v, segment starts %v)", held[0], p.compacted, starts)
		}
	}
	if end < p.durable || end > p.attempted {
		t.Fatalf("records end at %d; %d were durable, %d attempted", end, p.durable, p.attempted)
	}

	// (c), (d) a reader sees exactly that, accounts for every byte
	// beyond it, and changes nothing.
	before := snapshot(t, dir)
	ro, err := openToyRead(dir)
	if err != nil {
		t.Fatalf("OpenRead: %v", err)
	}
	got, readLoss, err := ro.read()
	if err != nil {
		t.Fatalf("reading: %v", err)
	}
	if !reflect.DeepEqual(got, held) {
		t.Fatalf("reader delivers %v; the files hold %v", got, held)
	}
	var lost int64
	for _, loss := range ro.Recovered() {
		lost += loss.LostBytes
	}
	if lost != beyond || readLoss != beyond {
		t.Fatalf("Recovered reports %d lost bytes, reads %d; %d lie beyond the valid prefix", lost, readLoss, beyond)
	}
	if ro.Append(0) == nil {
		t.Fatal("append to a read-only log accepted")
	}
	if after := snapshot(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("OpenRead changed the directory:\nbefore %v\nafter  %v", before, after)
	}

	// (e) a writer recovers the same, leaves every segment sealed, and
	// appends into a new segment after which the log reads old + new.
	w, err := openToy(dir, toySegmentBytes, toyFlushEvery)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	lost = 0
	for _, loss := range w.Recovered() {
		lost += loss.LostBytes
	}
	if lost != beyond {
		t.Fatalf("writer's Recovered reports %d lost bytes; %d lay beyond the valid prefix", lost, beyond)
	}
	if recovered, left := checkFiles(t, dir, true); !reflect.DeepEqual(recovered, held) || left != 0 {
		t.Fatalf("after the writer's recovery the files hold %v with %d bytes beyond; before, %v", recovered, left, held)
	}
	old := snapshot(t, dir)
	fresh := []uint32{1000, 1001, 1002, 1003, 1004}
	for _, seq := range fresh {
		if err := w.Append(seq); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	now := snapshot(t, dir)
	for name, was := range old {
		if now[name] != was {
			t.Fatalf("appending after recovery touched %s: %s, was %s", name, now[name], was)
		}
	}
	if all, left := checkFiles(t, dir, true); !reflect.DeepEqual(all, append(held[:len(held):len(held)], fresh...)) || left != 0 {
		t.Fatalf("after appending the files hold %v with %d bytes beyond; want %v then %v", all, left, held, fresh)
	}
}
