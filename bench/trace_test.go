package main

import (
	"testing"
	"time"
)

// TestSelfTimeOverlappingChildren: children overlapping each other (two
// scenarios running in parallel under one report pass) and sticking out of
// the parent are counted once and clipped.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 20, End: 60}, {Start: 30, End: 35}}, 50},
		{"nested duplicate", []span{{Start: 10, End: 40}, {Start: 10, End: 40}}, 70},
		{"clipped", []span{{Start: -50, End: 10}, {Start: 90, End: 150}}, 80},
		{"covering", []span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
		{"outside", []span{{Start: 200, End: 300}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAggregateMeansAndSelf(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "serve.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "experiment.exec.E5", Start: 10, End: 90},
		{ID: 3, Name: "serve.request", Start: 200, End: 220},
	}
	agg := aggregate(spans)
	req := agg["serve.request"]
	if req.n != 2 || req.mean() != 60 || req.meanSelf() != 20 {
		t.Errorf("serve.request: n=%d mean=%v self=%v, want 2, 60ns, 20ns", req.n, req.mean(), req.meanSelf())
	}
	m := spanMetrics(agg, 2)
	if got := m["serve.request_self_us"]; got != 0.02 {
		t.Errorf("serve.request_self_us = %v, want 0.02", got)
	}
	if got := m["experiment.exec_ms.E5"]; got != 80e-6 {
		t.Errorf("experiment.exec_ms.E5 = %v, want 8e-5", got)
	}
}

func TestSpanRefRoundTrip(t *testing.T) {
	ref := spanRef{id: 42, op: 7}
	if got := parseRef(formatRef(ref)); got != ref {
		t.Errorf("parseRef(formatRef(%v)) = %v", ref, got)
	}
	for _, bad := range []string{"", "7", "x/1", "1/y"} {
		if got := parseRef(bad); got != (spanRef{}) {
			t.Errorf("parseRef(%q) = %v, want the zero ref", bad, got)
		}
	}
}

func TestInactiveTracerRecordsNothing(t *testing.T) {
	var nilTracer *tracer
	off := newTracer()
	for _, tr := range []*tracer{nilTracer, off} {
		ran := false
		if err := tr.record("x", spanRef{op: 1}, func(spanRef) error { ran = true; return nil }); err != nil || !ran {
			t.Fatalf("record on an inactive tracer: ran=%v err=%v", ran, err)
		}
	}
	if n := len(off.snapshot()); n != 0 {
		t.Errorf("switched-off tracer kept %d spans", n)
	}
}
