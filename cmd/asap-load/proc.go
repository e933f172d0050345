package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every child process and scratch directory the harness
// creates, so every exit path can stop and remove them: main defers
// cleanup (normal end, error, panic) and the signal handler calls it on
// SIGINT/SIGTERM. Each child runs in its own process group, so the
// group signal reaches nothing else, and carries a parent-death signal,
// so even a harness killed outright — or a test binary aborted by its
// timeout — takes its servers down and releases their data-dir locks.
type procs struct {
	mu       sync.Mutex
	children []*child
	dirs     []string
	seq      int
}

type child struct {
	cmd  *exec.Cmd
	log  string // the child's stdout and stderr
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// start runs bin with args, logging its output to a file in dir.
func (p *procs) start(dir, name, bin string, args []string) (*child, error) {
	p.mu.Lock()
	p.seq++
	logPath := filepath.Join(dir, fmt.Sprintf("%02d-%s.log", p.seq, name))
	p.mu.Unlock()
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		f.Close()
		close(c.done)
	}()
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop asks the child's process group to shut down gracefully and
// waits; after grace it kills the group. It returns once the child has
// been reaped.
func (c *child) stop(grace time.Duration) {
	if c.exited() {
		return
	}
	_ = syscall.Kill(-c.pid(), syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(grace):
		_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
		<-c.done
	}
}

func (c *child) output() string {
	b, _ := os.ReadFile(c.log)
	return string(b)
}

// mkdir creates a scratch directory that cleanup removes.
func (p *procs) mkdir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, nil
}

// killAll kills every live child's process group and waits for each.
func (p *procs) killAll() {
	p.mu.Lock()
	children := append([]*child(nil), p.children...)
	p.mu.Unlock()
	for _, c := range children {
		if !c.exited() {
			_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
			<-c.done
		}
	}
}

// cleanup kills every child, then removes every scratch directory.
func (p *procs) cleanup() {
	p.killAll()
	p.mu.Lock()
	dirs := p.dirs
	p.dirs = nil
	p.mu.Unlock()
	for i := len(dirs) - 1; i >= 0; i-- {
		_ = os.RemoveAll(dirs[i])
	}
}

// saveLogs copies every child's log into dir as <name>.stderr, for
// diagnosing a failed run after its scratch directory is gone.
func (p *procs) saveLogs(dir string) {
	p.mu.Lock()
	children := append([]*child(nil), p.children...)
	p.mu.Unlock()
	for _, c := range children {
		src, err := os.Open(c.log)
		if err != nil {
			continue
		}
		base := strings.TrimSuffix(filepath.Base(c.log), ".log")
		if dst, err := os.Create(filepath.Join(dir, base+".stderr")); err == nil {
			_, _ = io.Copy(dst, src)
			dst.Close()
		}
		src.Close()
	}
}

// freePort asks the kernel for an unused loopback port. Another process
// can take it before the server binds; spawnServer retries that case.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}
