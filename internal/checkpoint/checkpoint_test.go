package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// blobPart is a Part whose state is one byte string.
type blobPart struct {
	state   []byte
	sealErr error
}

func (p *blobPart) CheckpointSeal() ([]byte, error) { return p.state, p.sealErr }
func (p *blobPart) RestoreCheckpoint(state []byte) error {
	p.state = append([]byte(nil), state...)
	return nil
}

// mustSave seals parts under sig with a small progress value and saves the
// sidecar.
func mustSave(t *testing.T, path, sig string, parts ...Part) {
	t.Helper()
	f, err := Seal(sig, testProgress{Pos: 7}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
}

type testProgress struct {
	Pos int `json:"pos"`
}

func TestSealSaveLoadRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	parts := []Part{&blobPart{state: []byte("alpha")}, &blobPart{state: []byte{0, 1, 2, 0xff}}}
	mustSave(t, path, "s", parts...)

	var prog testProgress
	f, err := Load(path, &prog)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Pos != 7 {
		t.Errorf("progress = %+v", prog)
	}
	fresh := []Part{&blobPart{}, &blobPart{}}
	if err := f.Restore("s", fresh); err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if want, got := parts[i].(*blobPart).state, fresh[i].(*blobPart).state; !bytes.Equal(got, want) {
			t.Errorf("part %d restored to %q, want %q", i, got, want)
		}
	}

	boom := errors.New("disk full")
	if _, err := Seal("s", nil, []Part{&blobPart{}, &blobPart{sealErr: boom}}); !errors.Is(err, boom) {
		t.Errorf("Seal error = %v, want the failing part's error", err)
	}
}

func TestZeroPartRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ckpt")
	mustSave(t, path, "s")
	f, err := Load(path, &testProgress{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Restore("s", nil); err != nil {
		t.Errorf("zero-part restore: %v", err)
	}
}

// TestRefusals: a readable sidecar that is the wrong one is refused three
// distinguishable ways, and nothing is restored.
func TestRefusals(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	mustSave(t, path, "s", &blobPart{state: []byte("x")})
	f, err := Load(path, &testProgress{})
	if err != nil {
		t.Fatal(err)
	}
	p := &blobPart{}
	if err := f.Restore("other", []Part{p}); !errors.Is(err, ErrSig) {
		t.Errorf("sig mismatch: err = %v, want ErrSig", err)
	}
	if err := f.Restore("s", []Part{p, &blobPart{}}); !errors.Is(err, ErrParts) {
		t.Errorf("part-count mismatch: err = %v, want ErrParts", err)
	}
	if p.state != nil {
		t.Error("a refused sidecar restored a part")
	}

	old, err := json.Marshal(File{Version: Version - 1, Sig: "s"})
	if err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(dir, "old.ckpt")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(oldPath, &testProgress{}); !errors.Is(err, ErrVersion) {
		t.Errorf("old version: err = %v, want ErrVersion", err)
	}

	if err := os.WriteFile(oldPath, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(oldPath, &testProgress{}); err == nil || errors.Is(err, ErrVersion) {
		t.Errorf("torn sidecar: err = %v, want a corrupt-sidecar error", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.ckpt"), &testProgress{}); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing sidecar: err = %v, want os.ErrNotExist in the chain", err)
	}
}

// TestCrashBetweenTmpAndRename: a process that died after writing path.tmp
// and before renaming it leaves the previous sidecar loadable, and the next
// Save cleans the stray temp file up.
func TestCrashBetweenTmpAndRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	mustSave(t, path, "first")
	if err := os.WriteFile(path+".tmp", []byte(`{"version":2,"sig":"half-writ`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path, &testProgress{})
	if err != nil || f.Sig != "first" {
		t.Fatalf("after the crash: sidecar = %+v, err = %v; want the first one intact", f, err)
	}
	mustSave(t, path, "second")
	if f, err = Load(path, &testProgress{}); err != nil || f.Sig != "second" {
		t.Fatalf("after the next Save: sidecar = %+v, err = %v", f, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stray temp file survived the next Save: %v", err)
	}
}

// TestFailedSaveRemovesTmp: the rename cannot replace a non-empty directory,
// so Save fails after its temp file is fully written — and must not leave it.
func TestFailedSaveRemovesTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "occupied")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := (&File{Version: Version, Sig: "s"}).Save(path); err == nil {
		t.Fatal("Save over a non-empty directory succeeded")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed Save left its temp file: %v", err)
	}
}
