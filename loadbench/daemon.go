package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one promipsd process serving an index directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{}
	waitErr error
}

// startDaemon launches promipsd on a free loopback port. The child is
// killed if this process dies first, so an interrupted run leaves no
// server behind.
func startDaemon(bin, dir string, autoCompact int, logPath string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := []string{"-dir", dir, "-addr", addr, "-timeout", "5s"}
	if autoCompact > 0 {
		args = append(args, "-auto-compact", strconv.Itoa(autoCompact))
	}
	// The server runs ten niceness steps below this process, which run.sh
	// starts at raised priority: the generator keeps its send schedule even
	// when the server saturates both cores.
	cmd := exec.Command("nice", append([]string{"-n", "10", bin}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start promipsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitReady polls /v1/readyz until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("promipsd exited before ready (%v); log tail:\n%s", d.waitErr, d.logTail())
		default:
		}
		resp, err := hc.Get(d.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("promipsd not ready after %v; log tail:\n%s", timeout, d.logTail())
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains the server with SIGTERM (it saves and exits) and waits for
// the process to end, killing it if the drain hangs.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("promipsd did not drain within 30s; killed")
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}
