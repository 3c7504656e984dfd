package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Checkpoint format v2: a header line {"fleet_checkpoint":2,
// "fleet_sig":"...","suites":[...]} followed by one JSON Result per
// line, appended as targets complete. A non-empty file whose first
// line is not that header (the headerless v1 format, which predates
// suites) is rejected: its sweep cannot be resumed, only restarted
// with a fresh checkpoint. A sweep killed
// mid-write leaves at most one torn trailing line, which
// LoadCheckpoint tolerates; corruption anywhere else is an error, not
// silent data loss.

// CheckpointVersion is the schema version this binary writes. A
// checkpoint declaring a newer version is rejected rather than
// misread.
const CheckpointVersion = 2

// checkpointHeader is the first line of a v2+ checkpoint.
type checkpointHeader struct {
	Version   int      `json:"fleet_checkpoint"`
	Signature string   `json:"fleet_sig,omitempty"`
	Suites    []string `json:"suites,omitempty"`
}

// FleetSignature fingerprints a target set independent of ephemeral
// addresses and sweep order: the hash covers each member's ID,
// preset, and knobs. A checkpoint records it so a resume against a
// different fleet (another seed or size) fails loudly instead of
// silently folding foreign results into the census.
func FleetSignature(targets []Target) string {
	ids := make([]string, 0, len(targets))
	byID := map[string]Target{}
	for _, t := range targets {
		if _, dup := byID[t.ID]; dup {
			continue
		}
		byID[t.ID] = t
		ids = append(ids, t.ID)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		t := byID[id]
		knobs, _ := json.Marshal(t.Knobs)
		fmt.Fprintf(h, "%s|%s|%s\n", t.ID, t.Preset, knobs)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// LoadCheckpoint reads the results recorded in a checkpoint file. A
// missing file is an empty checkpoint. Later records win when a
// target appears twice (a resumed sweep re-appends nothing, but a
// crashed one may). A non-empty file without a v2 header is an error.
func LoadCheckpoint(path string) (map[string]Result, error) {
	out, _, err := loadCheckpoint(path)
	return out, err
}

// loadCheckpoint is LoadCheckpoint plus the parsed header (zero for a
// missing or empty file), which Scan checks against the current fleet
// signature and suite set.
func loadCheckpoint(path string) (map[string]Result, checkpointHeader, error) {
	var hdr checkpointHeader
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]Result{}, hdr, nil
	}
	if err != nil {
		return nil, hdr, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	if len(data) == 0 {
		return map[string]Result{}, hdr, nil
	}
	out := map[string]Result{}
	lines := bytes.Split(data, []byte{'\n'})
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if hdr.Version == 0 {
			// The first line must be the header.
			var h checkpointHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Version <= 0 {
				return nil, hdr, errNoHeader(path)
			}
			if h.Version > CheckpointVersion {
				return nil, hdr, fmt.Errorf(
					"fleet: checkpoint %s is schema v%d but this binary reads up to v%d; upgrade or start a fresh checkpoint",
					path, h.Version, CheckpointVersion)
			}
			hdr = h
			continue
		}
		var r Result
		if err := json.Unmarshal(line, &r); err != nil {
			if i == len(lines)-1 {
				// Torn final line from an interrupted append; the
				// target will simply be rescanned.
				break
			}
			return nil, hdr, fmt.Errorf("fleet: checkpoint %s line %d: %w", path, i+1, err)
		}
		if r.TargetID == "" {
			return nil, hdr, fmt.Errorf("fleet: checkpoint %s line %d: missing target_id", path, i+1)
		}
		out[r.TargetID] = r
	}
	if hdr.Version == 0 {
		return nil, hdr, errNoHeader(path) // whitespace only
	}
	return out, hdr, nil
}

// errNoHeader rejects a non-empty checkpoint that does not open with a
// header line, such as the headerless format of older builds.
func errNoHeader(path string) error {
	return fmt.Errorf("fleet: checkpoint %s has no v%d header; start a fresh checkpoint", path, CheckpointVersion)
}

// checkpointWriter appends results to the checkpoint file, flushing
// per record so progress survives a kill.
type checkpointWriter struct {
	f  *os.File
	bw *bufio.Writer
}

// openCheckpoint opens the checkpoint for appending, stamping the
// header on a fresh (or empty) file. A non-empty file already passed
// the loader, so it starts with a header.
func openCheckpoint(path string, hdr checkpointHeader) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	w := &checkpointWriter{f: f, bw: bufio.NewWriter(f)}
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		line, err := json.Marshal(hdr)
		if err == nil {
			line = append(line, '\n')
			_, err = w.bw.Write(line)
		}
		if err == nil {
			err = w.bw.Flush()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: checkpoint header: %w", err)
		}
	}
	return w, nil
}

func (w *checkpointWriter) Append(r Result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("fleet: checkpoint append: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.bw.Write(line); err != nil {
		return fmt.Errorf("fleet: checkpoint append: %w", err)
	}
	return w.bw.Flush()
}

func (w *checkpointWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
