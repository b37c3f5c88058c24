package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that already runs pinned; its value is what the
// output header prints.
const pinnedEnv = "BOXES_BENCHMARK_PINNED"

// pinToOneCPU confines the benchmark, and with it the boxserve subprocess
// and everything else it starts, to the last processor it is allowed on,
// by setting the affinity of this thread and running the program again in
// its place: the new image and all its children inherit the mask, and both
// Go runtimes size themselves for one processor.
//
// With one closed-loop connection client and server take turns. On one
// processor the hand-over is a context switch; on two it is a wake-up of an
// idle virtual processor, which costs what the host's other tenants let it
// cost and lands on either side as the scheduler pleases — the largest
// run-to-run difference this sandbox showed. The last processor, because
// interrupts and kernel workers favour the first.
//
// It returns only if there is nothing to do or the pinning failed; the
// benchmark then runs where it is and the header says so.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 processors
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	allowed, last := 0, -1
	for i, word := range mask {
		allowed += bits.OnesCount64(word)
		if word != 0 {
			last = i*64 + 63 - bits.LeadingZeros64(word)
		}
	}
	if last < 0 {
		return fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=processor %d of %d", pinnedEnv, last, allowed))
	return fmt.Errorf("exec %s: %w", exe, syscall.Exec(exe, os.Args, env))
}
