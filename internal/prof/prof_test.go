package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// parse registers the flags on a fresh set whose output is returned, and
// parses args into it.
func parse(t *testing.T, args ...string) (start func() (func(), error), output *bytes.Buffer) {
	t.Helper()
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	output = new(bytes.Buffer)
	fs.SetOutput(output)
	start = RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return start, output
}

// sink keeps the CPU burn from being optimised away.
var sink uint64

func TestCPUAndHeapProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	start, output := parse(t, "-cpuprofile", cpu, "-memprofile", mem)
	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
	stop()
	if output.Len() != 0 {
		t.Errorf("stop reported %q", output.String())
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
}

func TestUnwritableHeapProfileIsReported(t *testing.T) {
	start, output := parse(t, "-memprofile", filepath.Join(t.TempDir(), "missing", "mem.pprof"))
	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if got := output.String(); !strings.HasPrefix(got, "memprofile: ") {
		t.Errorf("stop reported %q, want the memprofile failure", got)
	}
}
