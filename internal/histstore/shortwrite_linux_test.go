package histstore

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/rules"
)

// limitFileSize makes every write past n bytes of any file short, then
// failing (EFBIG), until the returned function lifts the limit again.
// SIGXFSZ, which the kernel raises alongside and whose default action
// kills the process, is ignored meanwhile.
func limitFileSize(t *testing.T, n uint64) (lift func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: n, Max: old.Max}); err != nil {
		signal.Reset(syscall.SIGXFSZ)
		t.Skipf("setrlimit: %v", err)
	}
	lifted := false
	lift = func() {
		if lifted {
			return
		}
		lifted = true
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Errorf("restoring RLIMIT_FSIZE: %v", err)
		}
		signal.Reset(syscall.SIGXFSZ)
	}
	t.Cleanup(lift)
	return lift
}

func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// underLimitEnv, set to "<order>:<dir>", turns a run of this test
// binary into the child that does the size-limited part of
// TestShortWriteNeverCertified on dir.
const underLimitEnv = "SHORTWRITE_UNDER_LIMIT"

const (
	liftThenClose = "lift-then-close" // Close's retry of the failed flush succeeds
	closeThenLift = "close-then-lift" // and fails
	shortWriteN   = 64
)

// runUnderLimit re-executes the test binary as that child and fails
// the test with the child's output if it fails. The limit is per
// process, and in the test's own process it also caught the testing
// package's log (go test's -test.testlogfile): a flush of that inside
// the window failed the run with "file too large" about once in
// twenty. The child is started without a test log and reports through
// a pipe, which no file-size limit applies to.
func runUnderLimit(t *testing.T, order, dir string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestShortWriteNeverCertified$", "-test.v")
	cmd.Env = append(os.Environ(), underLimitEnv+"="+order+":"+dir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("the child under the size limit: %v\n%s", err, out)
	}
	if bytes.Contains(out, []byte("--- SKIP")) {
		t.Skipf("the child could not limit itself:\n%s", out)
	}
}

// shortWriteChild is the child: open, limit, append until the one
// flush fails, then Close and lift in the given order. It checks what
// only the process that holds the store can see; the parent reopens
// the directory and checks what reached the disk.
func shortWriteChild(t *testing.T, spec string) {
	order, dir, _ := strings.Cut(spec, ":")
	// The first regular file a process opens starts the runtime's
	// poller, whose two descriptors stay: not a leak, so not counted.
	if f, err := os.Open(os.Args[0]); err == nil {
		f.Close()
	}
	before := openDescriptors(t)
	s, err := Open(dir, Options{FlushEvery: shortWriteN})
	if err != nil {
		t.Fatal(err)
	}
	lift := limitFileSize(t, 1000)
	var appendErr error
	for i := 0; i < shortWriteN; i++ {
		appendErr = s.AppendAlert(mkAlert("mallory", rules.SevHigh, t0.Add(time.Duration(i)*time.Second)))
	}
	if appendErr == nil || s.Err() == nil {
		t.Fatalf("the flush past the size limit reported no error (append %v, Err %v)", appendErr, s.Err())
	}
	if order == liftThenClose {
		lift()
	}
	err = s.Close()
	lift()
	if err == nil {
		t.Fatal("Close dropped the sticky error")
	}
	if order == liftThenClose {
		return
	}
	if after := openDescriptors(t); after != before {
		t.Fatalf("%d descriptors open after Close, %d before Open: the failed seal leaked the segment file", after, before)
	}
	if len(s.Segments()) != 0 {
		t.Fatalf("a failed seal retired the segment as readable: %+v", s.Segments())
	}
}

// TestShortWriteNeverCertified pins what Close may certify after a
// short write: the one flush of 64 records hits a 1000-byte file-size
// limit, so part of the buffer reaches the file and the write fails.
// Whether or not the retry in Close then succeeds, a sidecar must never
// count records the data file does not hold — a present sidecar is
// trusted without re-reading the data, so the loss would be silent.
func TestShortWriteNeverCertified(t *testing.T) {
	if spec := os.Getenv(underLimitEnv); spec != "" {
		shortWriteChild(t, spec)
		return
	}
	const n = shortWriteN
	decodable := func(t *testing.T, path string) int {
		res, err := scanSegment(path, nil, func(*view) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return res.Records
	}

	t.Run("retry succeeds", func(t *testing.T) {
		dir := t.TempDir()
		runUnderLimit(t, liftThenClose, dir)
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		segs := re.Segments()
		if len(segs) != 1 || len(re.Recovered()) != 0 {
			t.Fatalf("reopen: %d segments, recovered %v; want the one sealed segment", len(segs), re.Recovered())
		}
		st, err := os.Stat(segs[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		if got := decodable(t, segs[0].Path); re.Records() != n || got != n || segs[0].Index.Bytes != st.Size() {
			t.Fatalf("sidecar certifies %d records in %d bytes; the file holds %d decodable records in %d bytes; want %d everywhere",
				re.Records(), segs[0].Index.Bytes, got, st.Size(), n)
		}
	})

	t.Run("retry fails", func(t *testing.T) {
		dir := t.TempDir()
		runUnderLimit(t, closeThenLift, dir)
		data := dir + "/hist-00000001.hr"
		if _, err := os.Stat(indexPath(data)); !os.IsNotExist(err) {
			t.Fatalf("a failed seal left a sidecar (stat: %v)", err)
		}
		st, err := os.Stat(data)
		if err != nil {
			t.Fatal(err)
		}
		held := decodable(t, data)
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := re.Recovered()
		if held == 0 || held >= n || re.Records() != held || len(rec) != 1 {
			t.Fatalf("reopen counts %d records, recovered %v; the file held %d of %d", re.Records(), rec, held, n)
		}
		if ix := re.Segments()[0].Index; rec[0].LostBytes != st.Size()-ix.Bytes || rec[0].LostBytes <= 0 {
			t.Fatalf("recovered %d lost bytes of a %d-byte file with a %d-byte valid prefix", rec[0].LostBytes, st.Size(), ix.Bytes)
		}
	})
}
