package dataset

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/failpoint"
)

// testRun stands in for core.Run: the description is JSON of the caller's
// choosing, and this package does not look inside it.
type testRun struct {
	Seed    int64 `json:"seed"`
	VPScale int   `json:"vpscale"`
}

// A described recording says what run made it, and replays exactly as the
// same events without a description do: same counts, same accumulator state,
// at any worker count.
func TestDescriptionRoundTrip(t *testing.T) {
	want := testRun{Seed: 2, VPScale: 8}
	plain, described := writeMixedFile(t, 600, 1024), writeDescribedFile(t, want, 600, 1024)
	var got testRun
	if err := ReadDescription(bytes.NewReader(described), &got); err != nil || got != want {
		t.Fatalf("ReadDescription = %+v, %v; want %+v", got, err, want)
	}
	if starts, counts := walkFrames(t, described); counts[0] != 1 || !bytes.Equal(described[starts[1]:], plain[starts[0]:]) {
		t.Errorf("first frame holds %d records, want the description alone and the undescribed frames after it", counts[0])
	}
	replay := func(data []byte, workers int) (int, int, [][]byte) {
		r, err := NewReader(bytes.NewReader(data), synthPop())
		if err != nil {
			t.Fatal(err)
		}
		handlers := replayHandlers(t)
		probes, transfers, err := r.ReplayWith(ReplayOptions{Workers: workers}, handlers...)
		if err != nil || r.Torn() {
			t.Fatalf("workers=%d: %v, torn %v", workers, err, r.Torn())
		}
		return probes, transfers, sealAll(t, handlers)
	}
	probes, transfers, states := replay(plain, 1)
	for _, workers := range []int{1, 4} {
		p, tr, st := replay(described, workers)
		if p != probes || tr != transfers {
			t.Errorf("workers=%d: described replay counts %d/%d, undescribed %d/%d", workers, p, tr, probes, transfers)
		}
		for i := range states {
			if !bytes.Equal(st[i], states[i]) {
				t.Errorf("workers=%d: handler %d saw the description", workers, i)
			}
		}
	}
}

func TestDescribeAfterFirstEvent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.HandleProbe(synthProbe(0))
	if err := w.Describe(testRun{Seed: 1}); err == nil {
		t.Error("Describe after the first event succeeded")
	}
}

// What ReadDescription refuses: a recording without one, an empty one, one of
// the version that had none, one of the version before this one.
func TestReadDescriptionRefusals(t *testing.T) {
	var empty bytes.Buffer
	if _, err := NewWriter(&empty); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"undescribed": {writeMixedFile(t, 10, 1024), "does not open with a description of its run: first record is of kind 1"},
		"empty":       {empty.Bytes(), "does not open with a description of its run: EOF"},
		"version 2":   {[]byte("RGDS\x02"), "unsupported version 2"},
		"version 3":   {version3File(t), "unsupported version 3"},
		"not a file":  {[]byte("GIF89a"), "bad magic"},
	} {
		var run testRun
		if err := ReadDescription(bytes.NewReader(tc.data), &run); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// The replay sidecar's fingerprint hashes every delivered frame header, the
// description's included: a checkpoint taken over one run's recording is not
// resumed over the same events described as another's.
func TestReplayResumeRefusesSwappedDescription(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "replay.ckpt")
	opts := ReplayOptions{CheckpointPath: ckpt, CheckpointEvery: 2}
	replay := func(run testRun, opts ReplayOptions) error {
		r, err := NewReader(bytes.NewReader(writeDescribedFile(t, run, 300, 1024)), synthPop())
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = r.ReplayWith(opts, replayHandlers(t)...)
		return err
	}
	if err := failpoint.Enable("dataset/replay=kill@2"); err != nil {
		t.Fatal(err)
	}
	err := replay(testRun{Seed: 1, VPScale: 8}, opts)
	failpoint.Disable()
	if !errors.Is(err, failpoint.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	opts.Resume = true
	if err := replay(testRun{Seed: 2, VPScale: 8}, opts); !errors.Is(err, checkpoint.ErrSig) {
		t.Errorf("resume over a recording of seed 2: err = %v, want checkpoint.ErrSig", err)
	}
	if err := replay(testRun{Seed: 1, VPScale: 8}, opts); err != nil {
		t.Errorf("resume over the recording the checkpoint was taken of: %v", err)
	}
}
