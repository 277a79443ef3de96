package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// peakRSSMB returns the peak resident set size (VmHWM) of process pid,
// or of this process for pid 0, in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// procCPU returns the user+system CPU time process pid has used, across
// all its threads.
func procCPU(pid int) (time.Duration, error) {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the fields
	// after it start with the state (field 3), so utime and stime (fields
	// 14 and 15) are at offsets 11 and 12.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: %d fields", path, len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		t, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		ticks += t
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// cpuTicks returns the host-wide steal time and total time of all CPUs,
// in clock ticks, from the first line of /proc/stat. Steal is time the
// hypervisor ran something else while a virtual CPU wanted to run.
func cpuTicks() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: malformed cpu line")
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	for i, s := range f[1:9] {
		t, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += t
		if i == 7 {
			steal = t
		}
	}
	return steal, total, nil
}

// stealMeter measures the share of CPU time the hypervisor stole over an
// interval.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t, _ := cpuTicks() // without /proc/stat the ratio reads 0
	return stealMeter{s, t}
}

func (m stealMeter) ratio() float64 {
	s, t, err := cpuTicks()
	if err != nil {
		return 0
	}
	return ratio(float64(s-m.steal), float64(t-m.total))
}

// selfCPU returns the user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // only a bad pointer or who-value fails, and neither is possible here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
