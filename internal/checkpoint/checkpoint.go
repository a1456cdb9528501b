// Package checkpoint is the repo's one checkpoint protocol: what a resumable
// piece of state looks like (Part), what the sidecar file that carries it is
// (File), and how that file reaches disk without ever being torn (Save).
//
// An owner — the campaign, the dataset replay — lists its parts, seals them
// into a File next to its own progress, and saves it. On restart it loads
// the File, proves with Sig that the sidecar describes this very run, and
// restores every part. What stays with the owner is policy: when to
// checkpoint, what progress means, what goes into Sig, whether a failed seal
// is retried, and where its failpoint sites sit.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Version gates the sidecar schema. A sidecar is an artefact of one run, so
// an older one is refused rather than migrated. Version 4: Distance and
// Colocation seal counts, where version 3 sealed every probe's distances and
// every tick's value (and version 2 struct-keyed maps, not dense tables).
const Version = 4

// Part is one piece of state that rides a checkpoint. CheckpointSeal makes
// everything the part has absorbed so far durable and returns the blob from
// which RestoreCheckpoint puts a freshly constructed part back into exactly
// that state: a part with an output file (dataset writer, flight log)
// rewinds it to the sealed offset, an accumulator replaces its tables.
type Part interface {
	CheckpointSeal() ([]byte, error)
	RestoreCheckpoint(state []byte) error
}

// File is the sidecar. Progress is the owner's own position (tick index,
// block count, carried totals) as JSON; Parts holds one blob per part, in
// the order the owner lists them.
type File struct {
	Version  int             `json:"version"`
	Sig      string          `json:"sig"`
	Progress json.RawMessage `json:"progress"`
	Parts    [][]byte        `json:"parts"`
}

// The three ways a readable sidecar can still be the wrong one.
var (
	ErrVersion = errors.New("checkpoint: unsupported sidecar version")
	ErrSig     = errors.New("checkpoint: sidecar was written by a differently configured run")
	ErrParts   = errors.New("checkpoint: sidecar part count differs")
)

// Seal seals every part in order and returns the sidecar to Save. Sealing is
// repeatable: a part that has nothing new to make durable returns the same
// blob, so an owner may retry a failed Seal as a whole. Between Seal and
// Save sits the owner's crash window (its failpoint site): the parts are
// durable, the sidecar still describes the previous checkpoint.
func Seal(sig string, progress any, parts []Part) (*File, error) {
	f := &File{Version: Version, Sig: sig, Parts: make([][]byte, 0, len(parts))}
	var err error
	if f.Progress, err = json.Marshal(progress); err != nil {
		return nil, fmt.Errorf("checkpoint: progress: %w", err)
	}
	for _, p := range parts {
		blob, err := p.CheckpointSeal()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: sealing %T: %w", p, err)
		}
		f.Parts = append(f.Parts, blob)
	}
	return f, nil
}

// Save replaces the sidecar at path crash-safely: write path.tmp in the same
// directory, fsync it, rename it over the target, fsync the directory. A
// crash at any point leaves either the old sidecar or the new one, never a
// torn one. A failed Save removes its temp file.
func (f *File) Save(path string) error {
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err = writeSynced(tmp, data); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Best effort: not every filesystem lets a directory be synced, and the
	// rename has already happened.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a sidecar, checks its version and decodes the owner's progress
// into progress. A missing file is reported with os.ErrNotExist in the chain,
// so an owner can treat it as a cold start.
func Load(path string, progress any) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt sidecar %s: %w", path, err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("%w: %s has version %d, want %d", ErrVersion, path, f.Version, Version)
	}
	if err := json.Unmarshal(f.Progress, progress); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt progress in %s: %w", path, err)
	}
	return f, nil
}

// Restore proves the sidecar belongs to the caller's run (sig) and part list
// (count), then restores every part in order. Nothing is restored unless
// both checks pass.
func (f *File) Restore(sig string, parts []Part) error {
	if f.Sig != sig {
		return fmt.Errorf("%w: sidecar %s vs run %s", ErrSig, f.Sig, sig)
	}
	if len(f.Parts) != len(parts) {
		return fmt.Errorf("%w: sidecar has %d, run has %d", ErrParts, len(f.Parts), len(parts))
	}
	for i, p := range parts {
		if err := p.RestoreCheckpoint(f.Parts[i]); err != nil {
			return fmt.Errorf("checkpoint: restoring %T: %w", p, err)
		}
	}
	return nil
}
