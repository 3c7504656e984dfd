package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// readFormat is a segment family with a frame bound small enough for a
// fuzzer to find.
var readFormat = Format{
	Name: "read", Noun: "read",
	Prefix: "r-", DataExt: ".d", IndexExt: ".i",
	Magic:    "READSEG1",
	MaxFrame: 256,
	ReadBuf:  512,
}

// segmentOf builds a valid segment: frames of growing length, the last
// one at the frame bound.
func segmentOf(frames int) []byte {
	out := []byte(readFormat.Magic)
	for i := 0; i < frames; i++ {
		n := 1 + i*37
		if i == frames-1 {
			n = readFormat.MaxFrame
		}
		out = AppendFrame(out, bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	return out
}

// smallWindow is readFormat with a read window shorter than most of
// segmentOf's frames, so the reader must grow it.
var smallWindow = func() Format {
	f := readFormat
	f.ReadBuf = 64
	return f
}()

// readAll reads data and returns what was delivered, one string per
// frame; see readWith.
func readAll(t *testing.T, data []byte, sc *Scratch) ([]string, ScanResult) {
	t.Helper()
	return readWith(t, &readFormat, bytes.NewReader(data), int64(len(data)), sc)
}

// readWith reads a stream through f's frame reader and returns what was
// delivered, one string per frame, checking on the way that no payload
// exceeds the frame bound and that the read window never grows past
// one header and the largest payload, or ReadBuf if that is more.
func readWith(t *testing.T, f *Format, r io.Reader, size int64, sc *Scratch) ([]string, ScanResult) {
	t.Helper()
	var frames []string
	res, err := f.ReadFrames(r, size, sc, func(payload []byte) (string, error) {
		if len(payload) == 0 || len(payload) > f.MaxFrame {
			t.Fatalf("delivered a payload of %d bytes; bound %d", len(payload), f.MaxFrame)
		}
		frames = append(frames, fmt.Sprintf("%x", payload))
		return "", nil
	})
	if err != nil {
		t.Fatalf("corruption surfaced as an error: %v", err)
	}
	if bound := max(f.ReadBuf, f.MaxFrame+FrameHeaderLen); sc != nil && cap(sc.win) > bound {
		t.Fatalf("read window grew to %d bytes; bound %d", cap(sc.win), bound)
	}
	return frames, res
}

// failAfter serves data[:n] and then fails with a non-EOF error, as a
// disk read that breaks part-way through a segment would.
type failAfter struct {
	data []byte
	n    int
}

var errDiskGone = errors.New("disk gone")

func (r *failAfter) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, errDiskGone
	}
	n := copy(p, r.data[:r.n])
	r.data, r.n = r.data[n:], r.n-n
	return n, nil
}

// TestReadFramesRefills is the oracle for the read window: whatever the
// reader hands back per call — everything at once, a byte at a time,
// half of what is asked, the last bytes with io.EOF — the frames and
// the ScanResult are those of one bytes.Reader, through a window
// larger than every frame and through one smaller than most. A reader
// that fails part-way ends the valid prefix at the last whole frame,
// with the reason of the part it broke in.
func TestReadFramesRefills(t *testing.T) {
	// Payloads of 1 to 256 bytes, 20 KiB in all: the window refills at
	// every kind of offset.
	data := []byte(readFormat.Magic)
	for i := 0; i < 150; i++ {
		data = AppendFrame(data, bytes.Repeat([]byte{byte(i)}, 1+i*37%readFormat.MaxFrame))
	}
	var ends []int // where each frame ends
	for off := MagicLen; off < len(data); {
		off += FrameHeaderLen + int(binary.LittleEndian.Uint32(data[off:]))
		ends = append(ends, off)
	}
	for _, f := range []*Format{&readFormat, &smallWindow} {
		want, wantRes := readWith(t, f, bytes.NewReader(data), int64(len(data)), nil)
		if wantRes.Truncated || len(want) != len(ends) {
			t.Fatalf("window %d: clean read gave %d frames, %+v", f.ReadBuf, len(want), wantRes)
		}
		sc := &Scratch{}
		for name, r := range map[string]func() io.Reader{
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
			"data-err": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		} {
			for _, s := range []*Scratch{nil, sc, sc} {
				got, res := readWith(t, f, r(), int64(len(data)), s)
				if res != wantRes || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("window %d, %s reader: %d frames, %+v; want %d, %+v", f.ReadBuf, name, len(got), res, len(want), wantRes)
				}
			}
		}

		for k, end := range ends {
			start := MagicLen
			if k > 0 {
				start = ends[k-1]
			}
			for _, c := range []struct {
				at     int
				reason string
			}{
				{start, "short frame header"},
				{start + FrameHeaderLen/2, "short frame header"},
				{start + FrameHeaderLen, "short frame payload"},
				{end - 1, "short frame payload"},
			} {
				got, res := readWith(t, f, &failAfter{data: data, n: c.at}, int64(len(data)), sc)
				want := ScanResult{ValidBytes: int64(start), Truncated: true, Reason: c.reason, TailLossBytes: int64(len(data) - start)}
				if res != want || len(got) != k {
					t.Fatalf("window %d, fail at byte %d: %d frames, %+v; want %d, %+v", f.ReadBuf, c.at, len(got), res, k, want)
				}
			}
		}
	}
}

// FuzzReadFrames checks the one frame reader on arbitrary bytes: it
// never panics, never grows its window beyond the
// format's bound, accounts for every input byte, reads the same through
// a window smaller than the frames, and — the property every recovery
// path relies on — re-reading the valid prefix it reported delivers the
// same frames with nothing truncated.
func FuzzReadFrames(f *testing.F) {
	f.Add(segmentOf(4))
	valid := segmentOf(3)
	flipped := bytes.Clone(valid)
	flipped[MagicLen+FrameHeaderLen] ^= 0x40 // a payload bit: the checksum must catch it
	f.Add(flipped)
	f.Add(append([]byte(readFormat.Magic), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // implausible length
	f.Add(valid[:MagicLen+FrameHeaderLen/2])                                    // truncated header
	f.Add(valid[:len(valid)-5])                                                 // truncated payload
	f.Add([]byte(readFormat.Magic[:MagicLen-1]))
	f.Add([]byte("NOTASEG1rest"))
	f.Add([]byte(readFormat.Magic)) // a clean segment with no frames
	// Well-formed frames behind another format's magic: no valid prefix.
	f.Add(append([]byte("HSEG0001"), valid[MagicLen:]...))
	sum := bytes.Clone(valid)
	sum[MagicLen+4] ^= 0x01 // a checksum bit of the first frame header
	f.Add(sum)

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
		case (res.ValidBytes > 0) != bytes.HasPrefix(data, []byte(readFormat.Magic)):
			t.Fatalf("a valid prefix of %d bytes from input opening %q", res.ValidBytes, data[:min(len(data), MagicLen)])
		}
		// A window smaller than most frames, refilled half a request at a
		// time, reads the same.
		small, smallRes := readWith(t, &smallWindow, iotest.HalfReader(bytes.NewReader(data)), int64(len(data)), &Scratch{})
		if smallRes != res || fmt.Sprint(small) != fmt.Sprint(frames) {
			t.Fatalf("64-byte window read %d frames, %+v; 512-byte window %d, %+v", len(small), smallRes, len(frames), res)
		}
		if res.ValidBytes == 0 {
			return
		}
		// The same scratch again, as a replay pass reuses it, and a fresh one.
		for _, again := range []*Scratch{sc, nil} {
			refr, reres := readAll(t, data[:res.ValidBytes], again)
			if reres.Truncated || reres.ValidBytes != res.ValidBytes {
				t.Fatalf("valid prefix re-read as %+v; first read %+v", reres, res)
			}
			if fmt.Sprint(refr) != fmt.Sprint(frames) {
				t.Fatalf("valid prefix re-read delivers %d frames, first read %d", len(refr), len(frames))
			}
		}
	})
}

// TestReadFramesAllocations pins the reader's cost with a reused
// scratch: none per frame and none per segment — frames are parsed in
// place from the scratch's window, which a segment reuses rather than
// allocates.
func TestReadFramesAllocations(t *testing.T) {
	data := []byte(readFormat.Magic)
	for i := 0; i < 2000; i++ {
		data = AppendFrame(data, bytes.Repeat([]byte{byte(i)}, 1+i%90))
	}
	sc := &Scratch{}
	r := bytes.NewReader(nil)
	frames := 0
	read := func() {
		r.Reset(data)
		frames = 0
		res, err := readFormat.ReadFrames(r, int64(len(data)), sc, func([]byte) (string, error) {
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
