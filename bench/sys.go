//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these ticks. It is 100 on every Linux port Go supports.
const clockTick = 100

// allowedCPUs returns the CPUs this process may run on, in ascending order.
func allowedCPUs() []int {
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for w, bits := range mask {
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	return cpus
}

// pinThread restricts the calling OS thread to the given CPUs. The caller
// must hold runtime.LockOSThread. A child forked from this thread inherits
// the mask, which is how server children are placed.
func pinThread(cpus ...int) error {
	var mask [16]uint64
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*64 {
			return fmt.Errorf("cpu %d out of range", c)
		}
		mask[c/64] |= 1 << uint(c%64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return errno
	}
	return nil
}

// placement says where the program under test and the load generator run.
// With two or more allowed CPUs the server owns the first and the generator
// the second; otherwise both float and pinned is false.
type placement struct {
	pinned    bool
	all       []int
	serverCPU int
	genCPU    int
}

func choosePlacement() placement {
	cpus := allowedCPUs()
	p := placement{all: cpus}
	if len(cpus) >= 2 {
		p.pinned, p.serverCPU, p.genCPU = true, cpus[0], cpus[1]
	}
	return p
}

// procCPU returns the CPU time a whole process has used: the sum of its
// threads' exact scheduler runtimes (the first field of schedstat, in
// nanoseconds). Where the kernel keeps no schedstat it falls back to
// utime+stime from /proc/<pid>/stat, whose sum is as exact but is reported
// in 10 ms ticks.
func procCPU(pid int) (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			return procStatCPU(pid)
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return procStatCPU(pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return procStatCPU(pid)
		}
		total += ns
	}
	return time.Duration(total), nil
}

func procStatCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields restart after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / clockTick), nil
}

// procPeakRSS returns VmHWM of a process in bytes.
func procPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return 0, err
				}
				return kb << 10, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is this process's user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's user+system time so far.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// kernelRelease is uname -r.
func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// environment is the block recorded beside every set of results.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS struct {
		Bench     int `json:"bench"`
		Rootserve int `json:"rootserve"`
		SockEcho  int `json:"sockecho"`
	} `json:"gomaxprocs"`
	Pinned   bool   `json:"pinned"`
	Loopback string `json:"loopback"`
}

func readEnvironment() environment {
	var e environment
	e.Commit = gitCommit()
	e.GoVersion = runtime.Version()
	e.Kernel = kernelRelease()
	e.NProc = len(allowedCPUs())
	e.GOMAXPROCS.Bench = runtime.GOMAXPROCS(0)
	e.GOMAXPROCS.Rootserve = 1
	e.GOMAXPROCS.SockEcho = 1
	e.Pinned = choosePlacement().pinned
	e.Loopback = "127.0.0.1 (lo)"
	return e
}

// gitCommit reads HEAD without running git: the driver's checkout is not a
// repository, and then the commit is "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		data, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(data))
	}
	return s
}
