package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a kernel CPU mask of 1 024 bits.
type cpuSet [1024 / 64]uint64

func affinity(call uintptr, tid int, set *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(call, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); errno != 0 {
		return errno
	}
	return nil
}

// pinProcess confines every thread of the process, and so every thread it
// starts later, to the lowest-numbered CPU it may run on, and returns that
// CPU. The serve_* runs call it first thing: generator, server and kernel
// work of a request then share one vCPU, and neither the cost of waking a
// thread on the other vCPU nor which vCPU takes the disk's interrupts — both
// the host's choices, different from one run to the next — reaches the
// numbers (see README, host caveats).
func pinProcess() (int, error) {
	var allowed cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for i := 0; i < len(allowed)*64 && cpu < 0; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	// A thread inherits its creator's mask, so sweep until a sweep finds no
	// thread it has not pinned already: whatever starts after that was
	// started by a pinned thread.
	pinned := map[int]bool{}
	for sweep := 0; sweep < 10; sweep++ {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		fresh := 0
		for _, ent := range entries {
			tid, err := strconv.Atoi(ent.Name())
			if err != nil || pinned[tid] {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && err != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			return cpu, nil
		}
	}
	return 0, fmt.Errorf("threads kept appearing while pinning")
}
