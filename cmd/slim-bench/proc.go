package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves behind: its scratch directory and
// the child processes it started. close removes all of it, on every exit
// path including a signal.
type harness struct {
	root string // checkout root (the directory of the slim module's go.mod)
	base string // .bench_build/slim-bench: everything the benchmark writes
	bin  string // where slim-link and slimd are built
	dir  string // one run's scratch directory; empty on the parent

	mu       sync.Mutex
	children []*child
	runs     []*harness // the parent's runs, closed with it
}

// findRoot walks up from the working directory to the go.mod of module
// slim: the benchmark is a nested module and runs from its own directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(b, []byte("module slim\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("slim-bench: no go.mod of module slim above the working directory")
		}
		dir = parent
	}
}

// newHarness builds slim-link and slimd from the checkout's source into
// .bench_build (a no-op when the go build cache is warm). The runs'
// scratch directories go next to them: nothing is written outside the
// checkout.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "slim-bench")
	h := &harness{root: root, base: base, bin: filepath.Join(base, "bin")}
	if err := os.MkdirAll(h.bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", h.bin+string(filepath.Separator), "./cmd/slim-link", "./cmd/slimd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building slim-link and slimd: %v\n%s", err, out)
	}
	return h, nil
}

// newRun gives one run of one workload a scratch directory and a child
// list of its own.
func (h *harness) newRun() (*harness, error) {
	dir, err := os.MkdirTemp(h.base, "run-")
	if err != nil {
		return nil, err
	}
	r := &harness{root: h.root, base: h.base, bin: h.bin, dir: dir}
	h.mu.Lock()
	h.runs = append(h.runs, r)
	h.mu.Unlock()
	return r, nil
}

func (h *harness) subdir(name string) (string, error) {
	d := filepath.Join(h.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

// close kills every child still running, waits for it, and removes the
// scratch directory; on the parent it closes every run. Closing twice is
// harmless.
func (h *harness) close() {
	h.mu.Lock()
	children, runs := h.children, h.runs
	h.children, h.runs = nil, nil
	h.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, r := range runs {
		r.close()
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}

// child is one process under test. Its output goes to files, not pipes,
// so no harness goroutine competes with it for the two cores.
type child struct {
	cmd     *exec.Cmd
	logPath string
	done    chan struct{} // closed once Wait returned
}

// start runs one of the built binaries with stderr in logPath and, when
// outPath is not empty, stdout in outPath.
func (h *harness) start(logPath, outPath, name string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(h.bin, name), args...)
	cmd.Stderr = logf
	if outPath != "" {
		outf, err := os.Create(outPath)
		if err != nil {
			return nil, err
		}
		defer outf.Close()
		cmd.Stdout = outf
	}
	// The child dies with the harness even when the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed child's status is not an error here
		close(c.done)
	}()
	h.mu.Lock()
	h.children = append(h.children, c)
	h.mu.Unlock()
	return c, nil
}

// kill sends SIGKILL (the workload's crash, and the cleanup) and waits
// until the process has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// waitListening polls the child's log for slimd's "listening" line and
// returns the address it bound.
func (c *child) waitListening(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(c.logPath)
		if err != nil {
			return "", err
		}
		if m := listenRE.FindSubmatch(b); m != nil {
			return string(m[1]), nil
		}
		if c.exited() {
			return "", fmt.Errorf("slimd exited before listening:\n%s", tail(b))
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "", errors.New("slimd did not start listening in time")
}

func tail(b []byte) []byte {
	if len(b) > 2000 {
		return b[len(b)-2000:]
	}
	return b
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat; Linux
// reports USER_HZ = 100 to user space on every architecture Go supports.
const clockTick = 100

// cpuSeconds reads the user+system CPU time the process has used so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; the fields
	// after it are fixed: utime and stime are the 14th and 15th overall.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line: %q", b)
	}
	return (utime + stime) / clockTick, nil
}

var hwmRE = regexp.MustCompile(`VmHWM:\s+(\d+) kB`)

// peakRSSMB reads the process's peak resident set size so far. VmHWM
// belongs to the address space the exec created; ru_maxrss does not: Go
// starts children with CLONE_VM, and Linux then folds the parent's own
// high-water mark into the child's ru_maxrss.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	m := hwmRE.FindSubmatch(b)
	if m == nil {
		return 0, errors.New("no VmHWM in /proc status")
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024, nil
}
