//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// repoRoot walks up from the working directory to the directory holding
// go.mod: the checkout the benchmark builds from and writes into.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// outDir is where everything the benchmark leaves behind goes: the built
// rootserve, datasets, metrics snapshots, traces and results.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildRootserve compiles the shipping server from the tree.
func buildRootserve() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	out, err := outDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(out, "rootserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rootserve")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rootserve: %v\n%s", err, msg)
	}
	return bin, nil
}

// child is a server process under test (rootserve) or the socket-echo floor
// (this binary again), listening on a loopback port it chose itself.
type child struct {
	cmd  *exec.Cmd
	addr netip.AddrPort
	done chan error
	// stderr keeps what the child wrote to standard error (rootserve prints
	// a telemetry table there on exit); it is shown only when the child
	// fails.
	stderr bytes.Buffer
}

// startChild starts bin with GOMAXPROCS=1 on the server CPU and waits for
// the line that announces its listening address: the text between " on "
// and the next space. The child inherits the CPU mask of the thread that
// forks it, so the calling goroutine pins its thread around Start.
func startChild(p placement, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	c := &child{cmd: cmd, done: make(chan error, 1)}
	cmd.Stderr = &c.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	runtime.LockOSThread()
	if p.pinned {
		if err := pinThread(p.serverCPU); err != nil {
			runtime.UnlockOSThread()
			return nil, fmt.Errorf("pin to cpu %d: %w", p.serverCPU, err)
		}
	}
	err = cmd.Start()
	if p.pinned {
		_ = pinThread(p.all...) // restoring the mask the process started with cannot fail
	}
	runtime.UnlockOSThread()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}

	type announced struct {
		addr netip.AddrPort
		err  error
	}
	ready := make(chan announced, 1)
	go func() {
		r := bufio.NewReader(stdout)
		sent := false
		for {
			line, err := r.ReadString('\n')
			if !sent {
				if _, rest, ok := strings.Cut(line, " on "); ok {
					text, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
					addr, perr := netip.ParseAddrPort(text)
					ready <- announced{addr, perr}
					sent = true
				}
			}
			if err != nil {
				if !sent {
					ready <- announced{err: errors.New("exited before announcing its address")}
				}
				break
			}
		}
		_, _ = io.Copy(io.Discard, r)
		c.done <- cmd.Wait()
	}()
	select {
	case a := <-ready:
		if a.err != nil {
			c.stop()
			return nil, fmt.Errorf("%s: %w\n%s", filepath.Base(bin), a.err, c.stderr.String())
		}
		c.addr = a.addr
		return c, nil
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s: no listening address within 60s", filepath.Base(bin))
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop interrupts the child (rootserve writes its -metrics snapshot on the
// way out), waits for it to end, and kills it if it will not.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(os.Interrupt) // already exited is fine
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}
