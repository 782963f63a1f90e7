package pythia

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/quality"
)

// A snapshot is one gob document in one frame, so a load can tell a torn or
// bit-rotted file from a healthy one before handing bytes to gob:
//
//	magic "PYSNAP03" · uint64 payload length · payload · uint32 CRC-32 (IEEE)
//
// (integers big-endian). The length makes truncation detectable even when the
// cut falls on a gob message boundary, and the checksum is written last, so a
// crash mid-write leaves a detectably incomplete file. The magic's two digits
// are the format version, the only one there is: a change to what the payload
// means changes them, and a file of any other version is refused undecoded.
var snapMagic = [8]byte{'P', 'Y', 'S', 'N', 'A', 'P', '0', '3'}

// ErrSnapshotCorrupt marks a snapshot that is truncated, checksummed wrong,
// undecodable or inconsistent with itself. Callers match it with errors.Is
// to tell "the file is damaged" (keep serving the old generation, alert an
// operator) from programming errors.
var ErrSnapshotCorrupt = errors.New("pythia: snapshot corrupt")

// ErrSnapshotVersion marks an intact snapshot of another format version.
var ErrSnapshotVersion = errors.New("pythia: snapshot version unsupported")

// sealEnvelope frames payload and writes it to w.
func sealEnvelope(w io.Writer, payload []byte) error {
	var hdr [16]byte
	copy(hdr[:8], snapMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var foot [4]byte
	binary.BigEndian.PutUint32(foot[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(foot[:])
	return err
}

// openEnvelope reads a frame written by sealEnvelope and returns the verified
// payload. An envelope of another format version wraps ErrSnapshotVersion;
// every other failure mode — short read, wrong magic, truncated payload,
// trailing garbage, checksum mismatch — wraps ErrSnapshotCorrupt.
func openEnvelope(r io.Reader) ([]byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrSnapshotCorrupt, err)
	}
	if !bytes.Equal(hdr[:6], snapMagic[:6]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, hdr[:8])
	}
	if !bytes.Equal(hdr[6:8], snapMagic[6:]) {
		return nil, fmt.Errorf("%w: envelope %q, this build reads %q", ErrSnapshotVersion, hdr[:8], snapMagic[:])
	}
	want := binary.BigEndian.Uint64(hdr[8:])
	// Read what is actually there rather than trusting the declared length
	// with an allocation, so a corrupted length field cannot balloon memory.
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading payload: %v", ErrSnapshotCorrupt, err)
	}
	// (Compared this way round: a forged length near 2⁶⁴ must not wrap.)
	if have := uint64(len(rest)); have < 4 || have-4 != want {
		return nil, fmt.Errorf("%w: %d bytes after the header, which declares a payload of %d and a checksum", ErrSnapshotCorrupt, have, want)
	}
	payload := rest[:want]
	sum := binary.BigEndian.Uint32(rest[want:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, footer says %08x", ErrSnapshotCorrupt, got, sum)
	}
	return payload, nil
}

// persistedSystem is the snapshot document: the trained workloads in
// registration order, encoded once and sealed once.
type persistedSystem struct {
	Workloads []persistedWorkload
}

// persistedWorkload is one workload: its name, what Match reads (templates
// and relation set, sorted), the training-time drift baseline (nil: drift
// detection off) and the predictor.
type persistedWorkload struct {
	Name      string
	Templates []string
	Relations []string
	Baseline  *quality.Profile
	Predictor predictor.State
}

// Save writes every trained workload to w as one snapshot. LoadSystem
// reconstructs the full serving state from it (matching metadata and model
// weights), so a deployment can train once, persist, and later hot-swap the
// serving models without restarting: one Save on the training side, one
// LoadSystem per standby generation on the serving side. To persist to disk
// prefer SaveFile, which cannot tear an existing snapshot.
func (s *System) Save(w io.Writer) error {
	var doc persistedSystem
	for _, tw := range s.trained {
		pw := persistedWorkload{Name: tw.Name, Baseline: tw.Baseline, Predictor: tw.Pred.State()}
		for t := range tw.templates {
			pw.Templates = append(pw.Templates, t)
		}
		for r := range tw.relations {
			pw.Relations = append(pw.Relations, r)
		}
		sort.Strings(pw.Templates)
		sort.Strings(pw.Relations)
		doc.Workloads = append(doc.Workloads, pw)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&doc); err != nil {
		return err
	}
	return sealEnvelope(w, payload.Bytes())
}

// SaveWorkload writes the named trained workload to w: the snapshot of a
// system that holds it alone.
func (s *System) SaveWorkload(name string, w io.Writer) error {
	for _, tw := range s.trained {
		if tw.Name == name {
			return (&System{trained: []*Trained{tw}}).Save(w)
		}
	}
	return fmt.Errorf("pythia: no trained workload %q", name)
}

// SaveFile persists the snapshot bundle to path atomically: the bytes go to
// a temp file in the same directory, are fsynced, and only then renamed over
// path. Readers therefore always see either the complete old snapshot or the
// complete new one — never a torn intermediate — and a crash at any point
// leaves at worst a stray temp file, which the next SaveFile ignores.
func (s *System) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.Save(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort directory sync so the rename itself is durable; snapshot
	// content durability is already guaranteed by the file fsync above.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadSystem reads a snapshot written by Save into a fresh system over db,
// configured by cfg (invalid configurations panic exactly like New; pass one
// that came from Config.Normalize or an existing System). Workloads are
// registered in their saved order, so the loaded system predicts what the
// saving one did.
//
// It returns a system or an error, never both. An intact snapshot of another
// format version wraps ErrSnapshotVersion. Everything else wraps
// ErrSnapshotCorrupt: a damaged envelope and — wrapped here and only here —
// whatever is wrong below it (the gob stream, a vocabulary, an architecture
// that contradicts its weights).
func LoadSystem(db *catalog.Database, cfg Config, r io.Reader) (*System, error) {
	payload, err := openEnvelope(r)
	if err != nil {
		return nil, err
	}
	var doc persistedSystem
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrSnapshotCorrupt, err)
	}
	sys := New(db, cfg)
	for _, pw := range doc.Workloads {
		pred, err := predictor.FromState(pw.Predictor)
		if err != nil {
			return nil, fmt.Errorf("%w: workload %q: %v", ErrSnapshotCorrupt, pw.Name, err)
		}
		tw := &Trained{Name: pw.Name, Pred: pred, Baseline: pw.Baseline, templates: map[string]bool{}, relations: map[string]bool{}}
		for _, t := range pw.Templates {
			tw.templates[t] = true
		}
		for _, rel := range pw.Relations {
			tw.relations[rel] = true
		}
		sys.trained = append(sys.trained, tw)
	}
	return sys, nil
}

// LoadWorkload reads a snapshot holding exactly one workload (SaveWorkload
// writes one) and registers it for matching, exactly as if Train had run.
// Errors are LoadSystem's.
func (s *System) LoadWorkload(r io.Reader) (*Trained, error) {
	one, err := LoadSystem(s.DB, s.cfg, r)
	if err == nil && len(one.trained) != 1 {
		err = fmt.Errorf("%w: %d workloads where one is expected", ErrSnapshotCorrupt, len(one.trained))
	}
	if err != nil {
		return nil, err
	}
	s.trained = append(s.trained, one.trained[0])
	return one.trained[0], nil
}
