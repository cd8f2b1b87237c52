package main

import (
	"syscall"
	"time"
)

// processCPU is the CPU time the process has run so far, all threads,
// user and system. With paravirtual steal accounting (Linux guests on
// KVM) it leaves out the time the hypervisor withheld from the VM.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
