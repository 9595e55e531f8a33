//go:build !linux

package lincfl

import "testing"

// meterCPU reports nothing where getrusage is not available.
func meterCPU(*testing.B) (stop func()) { return func() {} }
