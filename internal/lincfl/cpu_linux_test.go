//go:build linux

package lincfl

import (
	"syscall"
	"testing"
	"time"
)

// meterCPU starts a count of the process's CPU time, user and system over
// all threads; the function it returns reports the time spent since as
// cpu-ms/op over b.N. Next to ns/op, which is wall time, it shows what a
// parallel run costs in CPU.
func meterCPU(b *testing.B) (stop func()) {
	start := cpuTime()
	return func() {
		b.ReportMetric(float64(cpuTime()-start)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
