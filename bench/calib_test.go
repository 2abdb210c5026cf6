package main

import "testing"

// TestRefKernelPinned: the reference kernel computes what it always has.
// Scaled set-up times from two versions of the benchmark compare only while
// the kernel is unchanged.
func TestRefKernelPinned(t *testing.T) {
	if got := refWork(1); got != refChecksum {
		t.Errorf("refWork(1) = %#x, want %#x: the reference kernel changed", got, uint64(refChecksum))
	}
}
