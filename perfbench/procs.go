package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
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

// proc is one spawned apserve or aprouter process.
type proc struct {
	name string
	addr string // host:port it listens on
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives Wait's result once

	stopOnce sync.Once
	stopErr  error
}

// spawn starts bin with args on a kernel-chosen loopback port, logging to
// dir/<name>.log. The port is learned from the log once the process is
// listening (see waitHealthy): picking a free port up front races with the
// ephemeral ports of outgoing connections.
func spawn(bin, dir, name string, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("create log: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should the benchmark itself be killed, the kernel kills its servers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// listenLine matches the line apserve ("serving") and aprouter ("routing")
// log once their listener is open.
var listenLine = regexp.MustCompile(`msg=(?:serving|routing) addr=(\S+)`)

func (p *proc) url() string { return "http://" + p.addr }

// waitHealthy waits for the process to log its listen address, then polls
// /healthz until it answers 200, the process exits or the context ends.
func (p *proc) waitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		if p.addr == "" {
			logged, err := os.ReadFile(p.log.Name())
			if err != nil {
				return err
			}
			if m := listenLine.FindSubmatch(logged); m != nil {
				p.addr = string(m[1])
				continue
			}
		} else if resp, err := get(ctx, hc, p.url()+"/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("%s exited during boot (%v); see %s", p.name, err, p.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the drain and kills the process if it has
// not exited within the grace period. Later calls return the first result.
func (p *proc) stop() error {
	p.stopOnce.Do(func() { p.stopErr = p.terminate() })
	return p.stopErr
}

func (p *proc) terminate() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		err = <-p.done
		if err == nil {
			err = errors.New("killed after drain timeout")
		}
	}
	p.log.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return nil
}

func stopAll(ps []*proc) error {
	var errs []error
	for _, p := range ps {
		errs = append(errs, p.stop())
	}
	return errors.Join(errs...)
}

// procUsage is what /proc says about one process.
type procUsage struct {
	cpu    time.Duration // utime + stime
	hwmKiB int64         // VmHWM: peak resident set
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for every architecture this runs on.
const clockTick = 10 * time.Millisecond

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	u.cpu = time.Duration(utime+stime) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			u.hwmKiB, err = strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return u, fmt.Errorf("parse VmHWM: %w", err)
			}
		}
	}
	return u, nil
}

// usageOf sums /proc usage over processes.
func usageOf(ps []*proc) (procUsage, error) {
	var sum procUsage
	for _, p := range ps {
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += u.cpu
		sum.hwmKiB += u.hwmKiB
	}
	return sum, nil
}

func get(ctx context.Context, hc *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return hc.Do(req)
}
