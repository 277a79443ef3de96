package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Placement of the service workloads. With two CPUs left to the Go
// schedulers of two processes, which goroutines share a CPU changes from
// second to second, and a run's throughput moved by up to 2.8 times
// between its windows. Pinning the benchmark process to one CPU and the
// server to another fixes the placement: every request crosses from one
// CPU to the other, in every run.

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs this process may run on, in order.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil, e
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// setAffinity binds thread tid (0: the calling thread) to cpu.
func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinProcess binds every thread of this process to cpu and runs Go code
// on one thread at a time. Threads started later inherit the binding
// from the thread that starts them.
func pinProcess(cpu int) error {
	pinned := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || pinned[tid] {
				continue
			}
			// A thread that exited in between is not an error.
			if err := setAffinity(tid, cpu); err != nil && err != syscall.ESRCH {
				return err
			}
			pinned[tid], fresh = true, true
		}
		if !fresh {
			break
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// placeService binds this process to the first CPU it may use and
// returns the placement for a service workload, or nil when only one CPU
// is available.
func placeService() (*placement, error) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return nil, err
	}
	if err := pinProcess(cpus[0]); err != nil {
		return nil, err
	}
	return &placement{client: cpus[0], server: cpus[1]}, nil
}

// startOn starts cmd bound to cpu, from a thread this process then binds
// back to home. The child inherits the starting thread's binding, so its
// Go runtime sizes itself to that one CPU.
func startOn(cmd *exec.Cmd, cpu, home int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpu); err != nil {
		return err
	}
	err := cmd.Start()
	if herr := setAffinity(0, home); err == nil {
		err = herr
	}
	return err
}
