package seglog

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
)

// readFormat accepts the magics of both stores — evstore's v1
// (CRC32-IEEE) and v2 and histstore's (both Castagnoli) — under a frame
// bound small enough for a fuzzer to find.
var readFormat = Format{
	Name: "read", Noun: "read",
	Prefix: "r-", DataExt: ".d", IndexExt: ".i",
	Magics: []Magic{
		{Text: "EVSEG001", Table: crc32.IEEETable},
		{Text: "EVSEG002", Table: crc32.MakeTable(crc32.Castagnoli)},
		{Text: "HSEG0001", Table: crc32.MakeTable(crc32.Castagnoli)},
	},
	MaxFrame: 256,
	ReadBuf:  512,
}

// segmentOf builds a valid segment under the magic at that position:
// frames of growing length, the last one at the frame bound.
func segmentOf(magic, frames int) []byte {
	m := readFormat.Magics[magic]
	out := []byte(m.Text)
	for i := 0; i < frames; i++ {
		n := 1 + i*37
		if i == frames-1 {
			n = readFormat.MaxFrame
		}
		out = AppendFrame(out, bytes.Repeat([]byte{byte(i + 1)}, n), m.Table)
	}
	return out
}

// readAll reads data and returns what was delivered, one string per
// frame, checking on the way that no payload exceeds the frame bound.
func readAll(t *testing.T, data []byte, sc *Scratch) ([]string, ScanResult) {
	t.Helper()
	var frames []string
	res, err := readFormat.ReadFrames(bytes.NewReader(data), int64(len(data)), sc, func(magic int, payload []byte) (string, error) {
		if len(payload) == 0 || len(payload) > readFormat.MaxFrame {
			t.Fatalf("delivered a payload of %d bytes; bound %d", len(payload), readFormat.MaxFrame)
		}
		frames = append(frames, fmt.Sprintf("%d:%x", magic, payload))
		return "", nil
	})
	if err != nil {
		t.Fatalf("corruption surfaced as an error: %v", err)
	}
	if sc != nil && cap(sc.payload) > readFormat.MaxFrame {
		t.Fatalf("payload buffer grew to %d bytes; bound %d", cap(sc.payload), readFormat.MaxFrame)
	}
	return frames, res
}

// FuzzReadFrames checks the one frame reader on arbitrary bytes under
// every magic: it never panics, never buffers a payload beyond the
// format's bound, accounts for every input byte, and — the property
// every recovery path relies on — re-reading the valid prefix it
// reported delivers the same frames with nothing truncated.
func FuzzReadFrames(f *testing.F) {
	for magic := range readFormat.Magics {
		f.Add(segmentOf(magic, 4))
	}
	valid := segmentOf(1, 3)
	flipped := bytes.Clone(valid)
	flipped[MagicLen+FrameHeaderLen] ^= 0x40 // a payload bit: the checksum must catch it
	f.Add(flipped)
	f.Add(append([]byte("HSEG0001"), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // implausible length
	f.Add(valid[:MagicLen+FrameHeaderLen/2])                              // truncated header
	f.Add(valid[:len(valid)-5])                                           // truncated payload
	f.Add([]byte("EVSEG00"))
	f.Add([]byte("NOTASEG1rest"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := &Scratch{}
		frames, res := readAll(t, data, sc)
		switch {
		case res.ValidBytes > int64(len(data)):
			t.Fatalf("valid prefix %d of %d input bytes", res.ValidBytes, len(data))
		case res.Truncated && res.ValidBytes+res.TailLossBytes != int64(len(data)):
			t.Fatalf("valid %d + lost %d != input %d", res.ValidBytes, res.TailLossBytes, len(data))
		case !res.Truncated && (res.TailLossBytes != 0 || res.ValidBytes != int64(len(data))):
			t.Fatalf("clean read of %d bytes reports valid %d, lost %d", len(data), res.ValidBytes, res.TailLossBytes)
		case (res.Magic < 0) != (res.ValidBytes == 0):
			t.Fatalf("magic %d with a valid prefix of %d bytes", res.Magic, res.ValidBytes)
		}
		if res.Magic < 0 {
			return
		}
		// The same scratch again, as a replay pass reuses it, and a fresh one.
		for _, again := range []*Scratch{sc, nil} {
			refr, reres := readAll(t, data[:res.ValidBytes], again)
			if reres.Truncated || reres.ValidBytes != res.ValidBytes || reres.Magic != res.Magic {
				t.Fatalf("valid prefix re-read as %+v; first read %+v", reres, res)
			}
			if fmt.Sprint(refr) != fmt.Sprint(frames) {
				t.Fatalf("valid prefix re-read delivers %d frames, first read %d", len(refr), len(frames))
			}
		}
	})
}

// TestReadFramesAllocations pins the reader's cost with a reused
// scratch: none per frame and none per segment — in particular the
// header buffer, which escapes into io.ReadFull, is not a local of the
// loop.
func TestReadFramesAllocations(t *testing.T) {
	m := readFormat.Magics[1]
	data := []byte(m.Text)
	for i := 0; i < 2000; i++ {
		data = AppendFrame(data, bytes.Repeat([]byte{byte(i)}, 1+i%90), m.Table)
	}
	sc := &Scratch{}
	r := bytes.NewReader(nil)
	frames := 0
	read := func() {
		r.Reset(data)
		frames = 0
		res, err := readFormat.ReadFrames(r, int64(len(data)), sc, func(int, []byte) (string, error) {
			frames++
			return "", nil
		})
		if err != nil || res.Truncated || frames != 2000 {
			t.Fatalf("read %d frames: %+v, %v", frames, res, err)
		}
	}
	read() // grows the buffers
	if allocs := testing.AllocsPerRun(10, read); allocs > 2 {
		t.Fatalf("%v allocations per 2000-frame segment with a reused scratch", allocs)
	}
}
