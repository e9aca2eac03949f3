package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The machine this benchmark is accepted on is a slice of a shared host:
// nproc says 2, yet for minutes at a time two busy threads each run at half
// speed (the two processors together deliver one processor's work) and then
// at full speed again. One busy thread runs at the same speed in both phases.
// Anything that keeps two threads busy at once — two clients, a client beside
// the server's collector, three cluster nodes — therefore measures which
// phase the host is in, by up to a factor of two. The harness confines itself
// and the servers it starts to one processor for the timed phases, so that
// the work is interleaved, never parallel, and the numbers are those of the
// program on one processor whatever the host does with the second.

// cpuMask is a sched_setaffinity mask; 1024 processors is the kernel's
// default limit.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// oneCPU returns a mask holding only the lowest processor of m.
func (m cpuMask) oneCPU() cpuMask {
	var out cpuMask
	for i := range m {
		if m[i] != 0 {
			out[i] = 1 << bits.TrailingZeros64(m[i])
			break
		}
	}
	return out
}

// setAffinity moves every thread of this process onto the processors in m.
// Threads and children started afterwards inherit the mask of the thread that
// starts them, so once a pass over /proc/self/task has found nothing left to
// move, everything the harness runs from here on stays inside m.
func setAffinity(m cpuMask) error {
	moved := map[int]bool{}
	for {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := 0
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || moved[tid] {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if errno != 0 && errno != syscall.ESRCH { // a thread may exit under us
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
			moved[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}
