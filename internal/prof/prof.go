// Package prof wires the conventional -cpuprofile/-memprofile flag pair into
// the measurement CLIs so the zone-integrity hot path can be inspected with
// `go tool pprof` on real campaign runs, not just microbenchmarks.
package prof

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// RegisterFlags declares -cpuprofile, -memprofile, -blockprofile and
// -mutexprofile on fs and returns the start to call once fs is parsed.
//
// start begins CPU profiling if -cpuprofile was given, and arms the runtime's
// block/mutex samplers if -blockprofile or -mutexprofile were. The stop it
// returns flushes the CPU profile and writes the heap, block, and mutex
// snapshots that were requested, reporting what it cannot write to
// fs.Output(); defer it, so it runs on every way out of the run.
func RegisterFlags(fs *flag.FlagSet) (start func() (stop func(), err error)) {
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write a heap profile to `file` on exit")
	blockprofile := fs.String("blockprofile", "", "write a goroutine blocking profile to `file` on exit")
	mutexprofile := fs.String("mutexprofile", "", "write a mutex contention profile to `file` on exit")
	return func() (func(), error) {
		var cpuFile *os.File
		if *cpuprofile != "" {
			var err error
			if cpuFile, err = os.Create(*cpuprofile); err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
				return nil, fmt.Errorf("start CPU profile: %w", err)
			}
		}
		// Sampling every event (rate 1) is the right trade for campaign-scale
		// runs: contention on the worker pool's shared caches is rare enough that
		// sparser sampling would miss it entirely.
		if *blockprofile != "" {
			runtime.SetBlockProfileRate(1)
		}
		if *mutexprofile != "" {
			runtime.SetMutexProfileFraction(1)
		}
		return func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if *memprofile != "" {
				runtime.GC() // settle the heap so the snapshot shows live objects
			}
			writeLookup(fs.Output(), "heap", "mem", *memprofile)
			writeLookup(fs.Output(), "block", "block", *blockprofile)
			writeLookup(fs.Output(), "mutex", "mutex", *mutexprofile)
		}, nil
	}
}

// writeLookup dumps the named runtime/pprof profile to path, if requested;
// flagName+"profile" is the flag a failure is reported under.
func writeLookup(stderr io.Writer, name, flagName, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		defer f.Close()
		err = pprof.Lookup(name).WriteTo(f, 0)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%sprofile: %v\n", flagName, err)
	}
}
