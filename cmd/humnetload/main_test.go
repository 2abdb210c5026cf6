package main

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// startDaemon serves an in-memory humnetd (LRU and coalescing, no disk
// cache) on a loopback port and returns its host:port.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv := serve.New(serve.Config{LRUSize: 64, MaxInFlight: 2, MaxQueue: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestRunRepeatDigestsMatch(t *testing.T) {
	addr := startDaemon(t)
	var stdout strings.Builder
	args := []string{"-addr", addr, "-n", "40", "-variants", "2", "-workers", "4",
		"-repeat", "2", "-scenarios", "E7", "-expect-single-exec"}
	if err := run(args, &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "verified: byte-identical digests across repeats") {
		t.Errorf("stdout lacks the verification line:\n%s", stdout.String())
	}
	var digests []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if _, d, ok := strings.Cut(line, ", digest "); ok && strings.HasPrefix(line, "rep ") {
			digests = append(digests, d)
		}
	}
	if len(digests) != 2 {
		t.Fatalf("stdout has %d rep digest lines, want 2:\n%s", len(digests), stdout.String())
	}
	if digests[0] == "" || digests[0] != digests[1] {
		t.Errorf("repeat digests differ: %q vs %q", digests[0], digests[1])
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	addr := startDaemon(t)
	cases := map[string][]string{
		"missing -addr":    {"-n", "1"},
		"-repeat 0":        {"-addr", addr, "-n", "1", "-repeat", "0"},
		"unknown scenario": {"-addr", addr, "-n", "1", "-scenarios", "E7,NOPE"},
	}
	for name, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%q) succeeded, want an error", name, args)
		}
	}
}

func TestPercentileSmallInputs(t *testing.T) {
	cases := []struct {
		sorted []int64
		q      int
		want   int64
	}{
		{[]int64{7}, 0, 7},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{[]int64{3, 9}, 0, 3},
		{[]int64{3, 9}, 50, 3},
		{[]int64{3, 9}, 99, 9},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %d) = %d, want %d", c.sorted, c.q, got, c.want)
		}
	}
}
