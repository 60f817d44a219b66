package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childRun is one finished child process: its output and its cost.
type childRun struct {
	stdout, stderr []byte
	wall           time.Duration
	cpu            time.Duration // user + system, from rusage
	maxRSSMB       float64
	err            error
}

// runChild runs bin to completion and collects rusage.
func runChild(bin string, args ...string) childRun {
	cmd := exec.Command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := childRun{stdout: out.Bytes(), stderr: errb.Bytes(), wall: time.Since(start), err: err}
	if cmd.ProcessState != nil {
		r.cpu, r.maxRSSMB = usage(cmd.ProcessState)
	}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLine(errb.String()))
	}
	return r
}

// usage extracts CPU time and peak RSS from a finished process.
func usage(ps *os.ProcessState) (time.Duration, float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return ps.UserTime() + ps.SystemTime(), 0
	}
	// Linux reports ru_maxrss in KiB.
	return ps.UserTime() + ps.SystemTime(), float64(ru.Maxrss) / 1024
}

// cpuTicks reads a live process's user+system CPU time from /proc. The
// scan-api phases need the server's CPU over an interval, which rusage
// (only available at exit) cannot give.
func cpuTicks(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is index 0,
	// utime index 11, stime index 12 (proc(5)).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	// USER_HZ is 100 on every Linux architecture Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}
