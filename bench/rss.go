package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// rssSampler records the peak resident set of each slice of a phase: every
// rssSlice it reads the process's peak (VmHWM) and resets it. The median
// slice peak ignores the one moment a collection ran late, which decides
// the lifetime peak. Where the kernel refuses the reset it falls back to
// the process-lifetime peak.
type rssSampler struct {
	stop   chan struct{}
	done   chan struct{}
	slices []float64
	reset  bool // every reset so far succeeded
}

// rssSlice is longer than any in-process operation, so every slice holds
// at least one operation's peak.
const rssSlice = time.Second

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.reset = resetPeakRSS() == nil
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssSlice)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.take()
			}
		}
	}()
	return s
}

// take records the slice that just ended and starts the next one.
func (s *rssSampler) take() {
	if mb, err := peakRSSMB(); err == nil {
		s.slices = append(s.slices, mb)
	}
	if s.reset {
		s.reset = resetPeakRSS() == nil
	}
}

// finish stops sampling and returns the median slice peak, or the
// process-lifetime peak if resetting it was refused or no slice could be
// read.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	s.take()
	if !s.reset || len(s.slices) == 0 {
		return peakRSSMB()
	}
	return median(s.slices), nil
}

// resetPeakRSS sets VmHWM back to the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
