//go:build linux

package main

import (
	"syscall"
	"time"
)

// processCPU returns the process's CPU time so far, user and system over
// all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
