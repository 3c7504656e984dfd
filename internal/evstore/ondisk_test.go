package evstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
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
// sidecars the store wrote when these digests were taken. A digest that
// moves means the frame format, the rotation point or the sidecar
// changed, and stores already on disk would read or prune differently.
//
// The binary cases start from an empty dir; their digest was taken at
// the commit before the segment machine moved into internal/seglog. The
// v1 cases continue the v1 fixture store (copyV1Store) in v2 segments —
// the shape a store recorded by an older build takes — and pin that the
// v1 segments are left untouched and numbering and rotation carry on
// from them; their digest matches the last build that could still write
// v1.
func TestOnDiskBytesPinned(t *testing.T) {
	more := workload.StandardMix(37, 100).Events
	old := v1Events()
	for i := range more {
		more[i].Seq = old[len(old)-1].Seq + uint64(i+1)
	}
	for _, tc := range []struct {
		name       string
		dir        func(t *testing.T) string
		opts       Options
		events     []trace.Event
		wantDigest string
		wantFiles  int
	}{
		{
			name: string(CodecBinary), dir: func(t *testing.T) string { return t.TempDir() },
			opts: Options{SegmentBytes: 64 << 10}, events: workload.StandardMix(11, 5000).Events,
			wantDigest: "65cd6e07c4d5003cd7476f2b090ae20a07717232dd000f68017731d97715eb2b", wantFiles: 10,
		},
		{
			name: "v1", dir: copyV1Store,
			opts: Options{SegmentBytes: 2048}, events: more,
			wantDigest: "d7dcb6a6d1790c81eb4d99d956b57024b03ffa734e5c0ed5ef24cad4bd12d914", wantFiles: 52,
		},
	} {
		for _, run := range []int{1, 7, 128} {
			t.Run(fmt.Sprintf("%s/run%d", tc.name, run), func(t *testing.T) {
				dir := tc.dir(t)
				s, err := Open(dir, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(tc.events); i += run {
					if err := s.AppendBatch(tc.events[i:min(i+run, len(tc.events))]); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				got, files := dirDigest(t, dir)
				if got != tc.wantDigest || len(files) != tc.wantFiles {
					t.Fatalf("store digest %s over %d files, want %s over %d; files:\n%s",
						got, len(files), tc.wantDigest, tc.wantFiles, strings.Join(files, "\n"))
				}
			})
		}
	}
}
