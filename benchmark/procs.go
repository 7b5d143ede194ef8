package main

import (
	"bufio"
	"bytes"
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

// buildServers compiles cmd/rrserved and cmd/rrproxy of the repository
// at root into binDir. The build is not timed.
func buildServers(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/rrserved", "./cmd/rrproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building servers in %s: %v\n%s", root, err, out)
	}
	return nil
}

// listenRe matches the line rrserved and rrproxy print once bound:
// "rrserved: listening on 127.0.0.1:NNNN (K tenants recovered)" or
// "rrproxy: listening on 127.0.0.1:NNNN, 2 backends, …".
var listenRe = regexp.MustCompile(`listening on (\S+?)(?:,| \((\d+) tenants recovered\))`)

// watcher is a server's stderr: it finds the listening line and keeps
// the last lines for error reports.
type watcher struct {
	ready   chan struct{} // closed once the listening line is seen
	mu      sync.Mutex
	partial []byte
	last    []string
	addr    string
	tenants int // recovered tenants reported on the listening line (rrserved)
}

func (w *watcher) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.partial = append(w.partial, b...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		line := string(w.partial[:i])
		w.partial = w.partial[i+1:]
		if len(w.last) == 16 {
			w.last = w.last[1:]
		}
		w.last = append(w.last, line)
		if m := listenRe.FindStringSubmatch(line); m != nil && w.addr == "" {
			w.addr = m[1]
			w.tenants, _ = strconv.Atoi(m[2]) // absent on the proxy's line
			close(w.ready)
		}
	}
	return len(b), nil
}

func (w *watcher) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.last, "\n")
}

// proc is one server process the benchmark started.
type proc struct {
	name    string
	cmd     *exec.Cmd
	out     *watcher
	addr    string
	tenants int
	exited  chan struct{} // closed once Wait returned
}

// procSet tracks every live process so an abort can stop them all.
type procSet struct {
	mu   sync.Mutex
	live map[*proc]struct{}
}

func newProcSet() *procSet { return &procSet{live: make(map[*proc]struct{})} }

// listenTimeout bounds how long a server may take to print its listening
// line (recovery of a large checkpoint log included).
const listenTimeout = 30 * time.Second

// start execs bin and waits for its listening line. The child gets
// SIGKILL if the benchmark dies first.
func (ps *procSet) start(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	w := &watcher{ready: make(chan struct{})}
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, out: w, exited: make(chan struct{})}
	ps.mu.Lock()
	ps.live[p] = struct{}{}
	ps.mu.Unlock()
	go func() {
		cmd.Wait() // the exit status of a killed server carries no information
		close(p.exited)
	}()
	select {
	case <-w.ready:
		w.mu.Lock()
		p.addr, p.tenants = w.addr, w.tenants
		w.mu.Unlock()
		return p, nil
	case <-p.exited:
		ps.kill(p)
		return nil, fmt.Errorf("%s exited before listening:\n%s", name, w.tail())
	case <-time.After(listenTimeout):
		ps.kill(p)
		return nil, fmt.Errorf("%s did not listen within %v:\n%s", name, listenTimeout, w.tail())
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (ps *procSet) kill(p *proc) {
	p.cmd.Process.Kill() // fails only if the process already exited
	<-p.exited
	ps.mu.Lock()
	delete(ps.live, p)
	ps.mu.Unlock()
}

// killAll stops every live process and waits for each.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	all := make([]*proc, 0, len(ps.live))
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		ps.kill(p)
	}
}

// cpuNS returns the CPU time of every thread of pid, in nanoseconds,
// from /proc/<pid>/task/*/schedstat.
func cpuNS(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("reading CPU time of pid %d: no tasks", pid)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that exited since the glob
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", t, err)
		}
		total += ns
	}
	return total, nil
}

// peakRSSMB returns the VmHWM of pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM line", pid)
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
