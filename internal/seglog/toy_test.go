package seglog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
)

// A toy store over the log, as small as a store can be: records are a
// sequence number padded to a length that depends on it, and the
// sidecar counts them. It drives Writer exactly as evstore and
// histstore do.

var toyFormat = Format{
	Name: "toy", Noun: "toy",
	Prefix: "toy-", DataExt: ".dat", IndexExt: ".ix",
	Magic:    "TOYSEG01",
	MaxFrame: 1 << 10,
	ReadBuf:  4 << 10,
}

type toyIndex struct {
	Version int   `json:"version"`
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
}

func (ix toyIndex) Trusted() bool { return ix.Version == 1 }

// toyPayload is seq, then seq%5*9 bytes each equal to byte(seq).
func toyPayload(seq uint32) []byte {
	p := binary.LittleEndian.AppendUint32(nil, seq)
	return append(p, bytes.Repeat([]byte{byte(seq)}, int(seq%5)*9)...)
}

func toySeq(payload []byte) (uint32, bool) {
	if len(payload) < 4 {
		return 0, false
	}
	seq := binary.LittleEndian.Uint32(payload)
	return seq, bytes.Equal(payload, toyPayload(seq))
}

type toyStore struct {
	*Log[toyIndex]
	w  Writer[toyIndex]
	ix toyIndex
}

func toyRebuild(path string) (toyIndex, ScanResult, error) {
	ix := toyIndex{Version: 1}
	res, err := readToySegment(path, func(uint32) { ix.Records++ })
	ix.Bytes = res.ValidBytes
	return ix, res, err
}

func readToySegment(path string, fn func(seq uint32)) (ScanResult, error) {
	f, size, err := OpenData(path)
	if err != nil {
		return ScanResult{}, err
	}
	defer f.Close()
	return toyFormat.ReadFrames(f, size, nil, func(payload []byte) (string, error) {
		seq, ok := toySeq(payload)
		if !ok {
			return "frame not a record", nil
		}
		fn(seq)
		return "", nil
	})
}

func openToy(dir string, segmentBytes int64, flushEvery int) (*toyStore, error) {
	log, err := Open(&toyFormat, dir, segmentBytes, flushEvery, toyRebuild)
	if err != nil {
		return nil, err
	}
	return &toyStore{Log: log, w: WriterOf(log)}, nil
}

func openToyRead(dir string) (*toyStore, error) {
	log, err := OpenRead(&toyFormat, dir, toyRebuild)
	if err != nil {
		return nil, err
	}
	return &toyStore{Log: log, w: WriterOf(log)}, nil
}

func (s *toyStore) Append(seq uint32) error {
	err := s.w.Lock()
	defer s.w.Unlock()
	if err != nil {
		return err
	}
	buf, fresh, err := s.w.Begin()
	if err != nil {
		return s.w.Fail(err)
	}
	if fresh {
		s.ix = toyIndex{Version: 1, Bytes: MagicLen}
	}
	start := len(buf)
	buf = AppendFrame(buf, toyPayload(seq))
	s.ix.Records++
	s.ix.Bytes += int64(len(buf) - start)
	full, err := s.w.End(buf)
	if err == nil && full {
		err = s.w.Seal(s.ix)
	}
	if err != nil {
		return s.w.Fail(err)
	}
	return nil
}

func (s *toyStore) Close() error {
	_ = s.w.Lock()
	defer s.w.Unlock()
	return s.w.Seal(s.ix)
}

// read returns every record of every sealed segment, in order, and the
// tail loss the reads reported.
func (s *toyStore) read() (seqs []uint32, lost int64, err error) {
	for _, seg := range s.Segments() {
		res, err := readToySegment(seg.Path, func(seq uint32) { seqs = append(seqs, seq) })
		if err != nil {
			return nil, 0, err
		}
		lost += res.TailLossBytes
	}
	return seqs, lost, nil
}

// parseToy is the test's own reading of a data file, written without
// ReadFrames so the two can disagree: the records of the valid frame
// prefix and that prefix's length.
func parseToy(data []byte) (seqs []uint32, valid int64) {
	if len(data) < MagicLen || string(data[:MagicLen]) != toyFormat.Magic {
		return nil, 0
	}
	off := MagicLen
	for len(data)-off >= FrameHeaderLen {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		body := off + FrameHeaderLen
		if n == 0 || n > toyFormat.MaxFrame || len(data)-body < n {
			break
		}
		seq, ok := toySeq(data[body : body+n])
		if !ok || crc32.Checksum(data[body:body+n], crc32.MakeTable(crc32.Castagnoli)) != sum {
			break
		}
		seqs = append(seqs, seq)
		off = body + n
	}
	return seqs, int64(off)
}

func mustRead(path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return data
}
