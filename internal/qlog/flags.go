package qlog

import (
	"flag"
	"os"
)

// Flags is the -qlog / -qlog-sample pair of a binary that can record a
// flight log, as RegisterFlags declared it and flag parsing filled it.
type Flags struct {
	// Path is the flight-log file; empty means recording is off.
	Path    string
	sampler Sampler
}

// RegisterFlags declares -qlog and -qlog-sample on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{sampler: Sampler{Every: 1}}
	fs.StringVar(&f.Path, "qlog", "", "record a flight log to this file (empty = off)")
	// Func, not Var: the default is not the zero Sampler, and -h goes on
	// wording it instead of printing one.
	fs.Func("qlog-sample", "flight-log sampler `spec`, e.g. every=64,seed=7 (empty = every event)", f.sampler.Set)
	return f
}

// Blackbox is where the black-box ring goes when the run dies: next to the
// log, and nowhere ("") when recording is off.
func (f *Flags) Blackbox() string {
	if f.Path == "" {
		return ""
	}
	return f.Path + ".blackbox"
}

// Open starts the recorder the flags ask for: nil, the disabled recorder,
// when -qlog was not given. resume reopens an interrupted log without
// truncating it (the campaign rewinds it to its checkpoint). Closing the
// recorder closes the file.
func (f *Flags) Open(resume bool) (*Recorder, error) {
	if f.Path == "" {
		return nil, nil
	}
	mode := os.O_RDWR | os.O_CREATE | os.O_TRUNC
	if resume {
		mode = os.O_RDWR
	}
	return newFileRecorder(f.Path, mode, f.sampler, f.Blackbox())
}

// newFileRecorder is New over a file the recorder opens and owns.
func newFileRecorder(path string, mode int, sampler Sampler, blackboxPath string) (*Recorder, error) {
	file, err := os.OpenFile(path, mode, 0o666)
	if err != nil {
		return nil, err
	}
	rec, err := New(file, sampler, blackboxPath)
	if err != nil {
		file.Close()
		return nil, err
	}
	rec.file = file
	return rec, nil
}
