package evstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// dirDigest hashes every file of dir — name, length, content — in name
// order (os.ReadDir sorts), and lists the per-file digests for the
// failure message.
func dirDigest(t *testing.T, dir string) (string, []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	all := sha256.New()
	var files []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(all, "%s %d\n", e.Name(), len(data))
		all.Write(data)
		files = append(files, fmt.Sprintf("%s %d %x", e.Name(), len(data), sha256.Sum256(data)))
	}
	return fmt.Sprintf("%x", all.Sum(nil)), files
}

// TestOnDiskBytesPinned pins "same bytes on disk": a fixed input
// appended in runs of any length must leave exactly the data files and
// sidecars the store wrote when this digest was taken. A digest that
// moves means the frame format, the rotation point or the sidecar
// changed, and stores already on disk would read or prune differently.
//
// The data files are those of the commit before the segment machine
// moved into internal/seglog; the sidecars were re-pinned once, when
// the index lost its "codec" key.
func TestOnDiskBytesPinned(t *testing.T) {
	const wantDigest, wantFiles = "26a8a966cbbabcd9c30413a7dcbbc938407ce823f2a11dc1e5be77f4252c5497", 10
	events := workload.StandardMix(11, 5000).Events
	for _, run := range []int{1, 7, 128} {
		t.Run(fmt.Sprintf("binary/run%d", run), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{SegmentBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(events); i += run {
				if err := s.AppendBatch(events[i:min(i+run, len(events))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			got, files := dirDigest(t, dir)
			if got != wantDigest || len(files) != wantFiles {
				t.Fatalf("store digest %s over %d files, want %s over %d; files:\n%s",
					got, len(files), wantDigest, wantFiles, strings.Join(files, "\n"))
			}
		})
	}
}
