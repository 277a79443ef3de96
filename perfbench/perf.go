package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Instruction counting. instr_per_req counts, with the CPU's hardware
// counter, the instructions the threads of the benchmark process and of
// the server retire while requests are answered, user and kernel mode
// (so syscalls and the loopback network stack count). On the shared
// 2-vCPU virtual machine this was written on, wall-clock figures of
// identical code moved by up to 1.7 times from one minute to the next (a
// busy loop too), while instructions per request agreed within about 1%.
//
// An active counter makes every exit to the hypervisor dearer, which cut
// the service workloads' throughput to about a third. So counts are taken
// in a phase of their own, after the timed one.

// countShare: the last 1/countShare of an untraced run (of each segment,
// for the services) is its counted phase.
const countShare = 8

// perfEventAttr is the head of struct perf_event_attr; the zeroed tail
// pads it to a size the kernel accepts.
type perfEventAttr struct {
	typ, size  uint32
	config     uint64
	sample     uint64
	sampleType uint64
	readFormat uint64
	flags      uint64
	_          [80]byte
}

const (
	perfTypeHardware     = 0
	perfCountInstruction = 1
	perfExcludeHV        = 1 << 6
	perfFlagFDCloexec    = 1 << 3
)

// instrCounter counts the instructions retired by a set of threads.
type instrCounter []int // one perf event per thread

// countInstructions opens a counter on every thread of each process in
// pids (0 for this process). Threads started later are not counted; the
// Go runtime starts few once a run has warmed up.
func countInstructions(pids ...int) (instrCounter, error) {
	var c instrCounter
	for _, pid := range pids {
		dir := "/proc/self/task"
		if pid != 0 {
			dir = fmt.Sprintf("/proc/%d/task", pid)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			c.close()
			return nil, err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			a := perfEventAttr{typ: perfTypeHardware, config: perfCountInstruction, flags: perfExcludeHV}
			a.size = uint32(unsafe.Sizeof(a))
			fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&a)),
				uintptr(tid), ^uintptr(0), ^uintptr(0), perfFlagFDCloexec, 0)
			if errno == syscall.ESRCH {
				continue // the thread exited in between
			}
			if errno != 0 {
				c.close()
				return nil, fmt.Errorf("hardware instruction counter on thread %d: %w", tid, errno)
			}
			c = append(c, int(fd))
		}
	}
	return c, nil
}

// read returns the instructions counted so far, summed over the threads.
func (c instrCounter) read() (uint64, error) {
	var sum uint64
	var b [8]byte
	for _, fd := range c {
		if n, err := syscall.Read(fd, b[:]); err != nil || n != len(b) {
			return 0, fmt.Errorf("read instruction counter: %d bytes, %v", n, err)
		}
		sum += binary.LittleEndian.Uint64(b[:])
	}
	return sum, nil
}

func (c instrCounter) close() {
	for _, fd := range c {
		syscall.Close(fd)
	}
}

// countedPhase runs phase with the instructions of the processes in pids
// counted, and returns the phase and its instructions per completion.
func countedPhase(phase func() phaseStats, pids ...int) (phaseStats, float64, error) {
	c, err := countInstructions(pids...)
	if err != nil {
		return phaseStats{}, 0, err
	}
	defer c.close()
	n0, err := c.read()
	if err != nil {
		return phaseStats{}, 0, err
	}
	st := phase()
	n1, err := c.read()
	if err != nil {
		return st, 0, err
	}
	return st, ratio(float64(n1-n0), float64(st.ops)), nil
}
