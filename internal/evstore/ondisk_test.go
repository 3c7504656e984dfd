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
// sidecars the store wrote when these digests were taken — at the
// commit before the segment machine moved into internal/seglog. A
// digest that moves means the frame format, the rotation point or the
// sidecar changed, and stores already on disk would read or prune
// differently.
func TestOnDiskBytesPinned(t *testing.T) {
	events := workload.StandardMix(11, 5000).Events
	want := map[Codec]struct {
		digest string
		files  int
	}{
		CodecBinary: {"65cd6e07c4d5003cd7476f2b090ae20a07717232dd000f68017731d97715eb2b", 10},
		CodecJSON:   {"14b0bff3dadeabd700f1a3b8e987aa5cf331916b46578e406005b78bf755418b", 38},
	}
	for _, codec := range []Codec{CodecBinary, CodecJSON} {
		for _, run := range []int{1, 7, 128} {
			t.Run(fmt.Sprintf("%s/run%d", codec, run), func(t *testing.T) {
				dir := t.TempDir()
				s, err := Open(dir, Options{SegmentBytes: 64 << 10, Codec: codec})
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
				if w := want[codec]; got != w.digest || len(files) != w.files {
					t.Fatalf("store digest %s over %d files, want %s over %d; files:\n%s",
						got, len(files), w.digest, w.files, strings.Join(files, "\n"))
				}
			})
		}
	}
}
