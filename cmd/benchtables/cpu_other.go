//go:build !linux

package main

import "time"

// processCPU reads zero where getrusage is not available, so E12's
// cpu_ms_op column is zero there.
func processCPU() time.Duration { return 0 }
