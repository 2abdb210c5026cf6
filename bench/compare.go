package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles prints, per metric and workload, each side's median and
// quartiles and a verdict. A is the parent (baseline), B the change; runs
// pair up by seed.
func compareFiles(w io.Writer, sp *spec, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("--compare takes two recorded files, A (parent) and B (change)")
	}
	a, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	b, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%-34s %-11s %28s %28s %8s  %s\n", "metric", "workload", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		for _, wl := range sp.Workloads {
			av, bv := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := judge(m, av, bv)
			fmt.Fprintf(&out, "%-34s %-11s %28s %28s %+7.1f%%  %s (%d pairs)\n", m.Name, wl.Name,
				c.a.String(), c.b.String(), c.change*100, c.verdict, c.pairs)
		}
	}
	_, err = w.Write(out.Bytes())
	return err
}

type records []runRecord

func loadRecords(path string) (records, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs records
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return rs, nil
}

// values maps seed to the metric's value on workload wl.
func (rs records) values(wl, metric string) map[uint64]float64 {
	out := make(map[uint64]float64)
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == wl {
			out[r.Seed] = v.Value
		}
	}
	return out
}

type summary struct{ q1, med, q3 float64 }

func (s summary) String() string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3) }

func summarize(vals map[uint64]float64) summary {
	var xs []float64
	for _, v := range vals {
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	q1, med, q3 := quartiles(xs)
	return summary{q1, med, q3}
}

type comparison struct {
	a, b    summary
	change  float64 // (B - A) / A on the medians
	pairs   int
	verdict string
}

// minPairs is the fewest seed-paired runs a verdict other than unresolved
// rests on.
const minPairs = 10

// judge applies the acceptance rules: B is better only if it wins at least
// nine tenths of the seed-paired runs (ties count for neither) and the
// medians differ by more than A's quartile spread, or if every B run beats
// every A run. A bounded metric is worse when B's median is worse than A's
// by more than the bound, unresolved when A's own spread exceeds the bound,
// and within bound otherwise. A metric without a bound is worse by the
// mirror of the better rule and otherwise unresolved. Under minPairs
// pairs, every metric is unresolved.
func judge(m specMetric, a, b map[uint64]float64) comparison {
	c := comparison{a: summarize(a), b: summarize(b)}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	if c.a.med != 0 {
		c.change = (c.b.med - c.a.med) / math.Abs(c.a.med)
	}
	var seeds []uint64
	for s := range a {
		if _, ok := b[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	wins, losses := 0, 0
	for _, s := range seeds {
		switch d := sign * (b[s] - a[s]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	c.pairs = len(seeds)
	gain := sign * (c.b.med - c.a.med)
	spread := c.a.q3 - c.a.q1
	allBetter := true
	for _, av := range a {
		for _, bv := range b {
			allBetter = allBetter && sign*(bv-av) > 0
		}
	}
	switch {
	case c.pairs < minPairs:
		c.verdict = "unresolved"
	case allBetter:
		c.verdict = "better"
	case c.pairs > 0 && wins*10 >= 9*c.pairs && gain > spread:
		c.verdict = "better"
	case m.Bound > 0 && -gain > m.Bound*math.Abs(c.a.med):
		c.verdict = "worse"
	case m.Bound == 0 && c.pairs > 0 && losses*10 >= 9*c.pairs && -gain > spread:
		c.verdict = "worse"
	case m.Bound == 0 || spread > m.Bound*math.Abs(c.a.med):
		c.verdict = "unresolved"
	default:
		c.verdict = "within bound"
	}
	return c
}
