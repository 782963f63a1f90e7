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

// Snapshot bundles are framed so a load can tell a torn or bit-rotted file
// from a healthy one before handing bytes to gob. The frame is
//
//	magic "PYSNAP02" · uint64 payload length · payload · uint32 CRC-32 (IEEE)
//
// (integers big-endian). The length makes truncation detectable even when the
// cut falls on a gob message boundary, and the trailing checksum is written
// last, so a crash mid-write always leaves a detectably incomplete file. The
// magic's two digits are the format version: 02 stores one encoder trunk per
// workload under its per-object decoder heads, where 01 stored an encoder per
// object, and a file of any other version is refused before it is decoded.
var snapMagic = [8]byte{'P', 'Y', 'S', 'N', 'A', 'P', '0', '2'}

// ErrSnapshotCorrupt marks a snapshot that is truncated, checksummed wrong,
// or otherwise unreadable. Callers match it with errors.Is to distinguish
// "the file is damaged" (keep serving the old generation, alert an operator)
// from programming errors.
var ErrSnapshotCorrupt = errors.New("pythia: snapshot corrupt")

// ErrSnapshotVersion marks a structurally intact snapshot written by an
// incompatible persistence version.
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
	if uint64(len(rest)) != want+4 {
		return nil, fmt.Errorf("%w: payload %d bytes, header declares %d", ErrSnapshotCorrupt, len(rest), want+4)
	}
	payload := rest[:want]
	sum := binary.BigEndian.Uint32(rest[want:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, footer says %08x", ErrSnapshotCorrupt, got, sum)
	}
	return payload, nil
}

// persistedWorkload is the on-disk form of one trained workload: its name,
// the matching metadata (templates and relation set), the predictor, and the
// training-time drift baseline. Baseline rides as an added gob field —
// version 2 snapshots written before it existed decode with a nil Baseline
// (drift detection off), so the persistence version is unchanged.
type persistedWorkload struct {
	Version   int
	Name      string
	Templates []string
	Relations []string
	Predictor []byte
	Baseline  *quality.Profile
}

const persistVersion = 2

// SaveWorkload writes the named trained workload to w, so a production
// deployment can train once and serve from the persisted models.
func (s *System) SaveWorkload(name string, w io.Writer) error {
	var tw *Trained
	for _, t := range s.trained {
		if t.Name == name {
			tw = t
		}
	}
	if tw == nil {
		return fmt.Errorf("pythia: no trained workload %q", name)
	}
	state := persistedWorkload{Version: persistVersion, Name: tw.Name, Baseline: tw.Baseline}
	for t := range tw.templates {
		state.Templates = append(state.Templates, t)
	}
	for r := range tw.relations {
		state.Relations = append(state.Relations, r)
	}
	sort.Strings(state.Templates)
	sort.Strings(state.Relations)
	var buf bytes.Buffer
	if err := tw.Pred.Save(&buf); err != nil {
		return err
	}
	state.Predictor = buf.Bytes()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&state); err != nil {
		return err
	}
	return sealEnvelope(w, payload.Bytes())
}

// persistedSystem is the on-disk form of a whole trained system: every
// workload bundle in registration order. It is the snapshot unit of the
// serve tier's zero-downtime model swap — one Save on the training side, one
// LoadSystem per standby replica on the serving side.
type persistedSystem struct {
	Version   int
	Workloads [][]byte
}

// Save writes every trained workload to w as one snapshot bundle. Loading
// the bundle with LoadSystem reconstructs the full serving state (matching
// metadata and model weights), so a deployment can train once, persist, and
// later hot-swap the serving models from the file without restarting.
//
// To persist to disk, prefer SaveFile: it makes the write atomic, so a crash
// mid-save can never tear an existing snapshot.
func (s *System) Save(w io.Writer) error {
	state := persistedSystem{Version: persistVersion}
	for _, tw := range s.trained {
		var buf bytes.Buffer
		if err := s.SaveWorkload(tw.Name, &buf); err != nil {
			return err
		}
		state.Workloads = append(state.Workloads, buf.Bytes())
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&state); err != nil {
		return err
	}
	return sealEnvelope(w, payload.Bytes())
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

// LoadSystem reads a bundle written by Save into a fresh system over db,
// configured by cfg (invalid configurations panic exactly like New; pass one
// that came from Config.Normalize or an existing System). Every workload in
// the bundle is registered for matching in its saved order, so predictions
// from the loaded system are identical to the system that saved it.
//
// A truncated, checksum-failing, or otherwise damaged bundle returns an error
// wrapping ErrSnapshotCorrupt; an intact bundle from an incompatible
// persistence version wraps ErrSnapshotVersion.
func LoadSystem(db *catalog.Database, cfg Config, r io.Reader) (*System, error) {
	payload, err := openEnvelope(r)
	if err != nil {
		return nil, err
	}
	var state persistedSystem
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&state); err != nil {
		return nil, fmt.Errorf("%w: decoding system snapshot: %v", ErrSnapshotCorrupt, err)
	}
	if state.Version != persistVersion {
		return nil, fmt.Errorf("%w: persisted version %d, this build reads %d", ErrSnapshotVersion, state.Version, persistVersion)
	}
	sys := New(db, cfg)
	for _, wb := range state.Workloads {
		if _, err := sys.LoadWorkload(bytes.NewReader(wb)); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// LoadWorkload reads a workload previously written by SaveWorkload and
// registers it for matching, exactly as if Train had run. Damaged input
// wraps ErrSnapshotCorrupt; a version mismatch wraps ErrSnapshotVersion.
func (s *System) LoadWorkload(r io.Reader) (*Trained, error) {
	payload, err := openEnvelope(r)
	if err != nil {
		return nil, err
	}
	var state persistedWorkload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&state); err != nil {
		return nil, fmt.Errorf("%w: decoding workload: %v", ErrSnapshotCorrupt, err)
	}
	if state.Version != persistVersion {
		return nil, fmt.Errorf("%w: persisted version %d, this build reads %d", ErrSnapshotVersion, state.Version, persistVersion)
	}
	pred, err := predictor.Load(bytes.NewReader(state.Predictor))
	if err != nil {
		return nil, err
	}
	tw := &Trained{
		Name:      state.Name,
		Pred:      pred,
		Baseline:  state.Baseline,
		templates: map[string]bool{},
		relations: map[string]bool{},
	}
	for _, t := range state.Templates {
		tw.templates[t] = true
	}
	for _, rel := range state.Relations {
		tw.relations[rel] = true
	}
	s.trained = append(s.trained, tw)
	return tw, nil
}
