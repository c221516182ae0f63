package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the CPU time of process pid, summed over its threads
// from /proc/<pid>/task/*/schedstat. Those count nanoseconds, where
// /proc/<pid>/stat counts 10 ms ticks, too coarse for a half-second slice.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("parse %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB returns VmHWM, the peak resident set of process pid, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts pid's VmHWM from its current RSS, so the peak read
// after a timed window belongs to that window and not to set-up.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

// allowedCPUs returns the CPUs this thread may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); e != 0 {
		return nil, e
	}
	var cpus []int
	for c := 0; c < 64*len(set); c++ {
		if set[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// pinProcess restricts every thread of process pid to cpus. Threads and
// children started later inherit the mask of the thread that starts them.
func pinProcess(pid int, cpus []int) error {
	var set cpuSet
	for _, c := range cpus {
		set[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return err
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
		if e != 0 && e != syscall.ESRCH { // ESRCH: the thread exited
			return fmt.Errorf("pin thread %d of %d to %v: %w", tid, pid, cpus, e)
		}
	}
	return nil
}
