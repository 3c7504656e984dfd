package histstore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rules"
)

// TestOnDiskBytesPinned pins "same bytes on disk": a fixed sequence of
// 2,000 alert and incident records must leave exactly the data files
// and sidecars the store wrote when this digest was taken — at the
// commit before the segment machine moved into internal/seglog. The
// digest covers every file's name, length and content in name order.
func TestOnDiskBytesPinned(t *testing.T) {
	const wantDigest, wantFiles = "bd65aed5115be10250e190623b8bbb74dcc289bbc5125b6ca86fbbb27d2b234d", 14

	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	sevs := []rules.Severity{rules.SevLow, rules.SevMedium, rules.SevHigh, rules.SevCritical}
	for i := 0; i < 2000; i++ {
		actor := fmt.Sprintf("actor-%02d", i%37)
		class := fmt.Sprintf("class.%d", i%5)
		at := t0.Add(time.Duration(i) * 1500 * time.Millisecond)
		if i%3 == 2 {
			err = s.AppendIncident(mkIncident(actor, class, i%4, i/3+1, sevs[i%4], float64(i%101), t0.Add(time.Duration(i%37)*time.Second), at))
		} else {
			a := mkAlert(actor, sevs[i%4], at)
			a.Class, a.RuleID, a.Count = class, fmt.Sprintf("SC-%03d", i%19), i%6
			err = s.AppendAlert(a)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir) // sorted by name
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
	if got := fmt.Sprintf("%x", all.Sum(nil)); got != wantDigest || len(files) != wantFiles {
		t.Fatalf("history digest %s over %d files, want %s over %d; files:\n%s",
			got, len(files), wantDigest, wantFiles, strings.Join(files, "\n"))
	}
}
