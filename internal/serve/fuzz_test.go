package serve

import (
	"net/url"
	"strconv"
	"testing"

	"repro/internal/experiment"
)

// FuzzParseRun drives the untrusted /run boundary: a raw query string goes
// through url.ParseQuery (whose error the handler ignores, as
// r.URL.Query() does) into Registry.ParseJob, the parser /run and
// reportgen -run share. Parsing must never panic, and an accepted query must
// be idempotent: re-encoding its merged parameters with id and seed and
// parsing that again yields the same cache key.
func FuzzParseRun(f *testing.F) {
	reg := experiment.NewRegistry()
	typed := testDef("T2")
	typed.Params = append(typed.Params,
		experiment.Spec{Name: "rate", Kind: experiment.Float, Default: 0.5, Doc: "float param"},
		experiment.Spec{Name: "budget", Kind: experiment.Uint, Default: uint64(9), Doc: "uint param"},
	)
	for _, d := range []experiment.Def{testDef("T1"), typed} {
		if err := reg.Register(d); err != nil {
			f.Fatal(err)
		}
	}

	for _, seed := range []string{
		"id=T1",
		"id=T1&seed=42&rows=5&label=a%3Db%0A",
		"id=T2&rate=-0&budget=18446744073709551615",
		"id=T2&rate=NaN&seed=0",
		"id=T2&rate=1e-320&rows=-3",
		"id=T1&rows=1&rows=2",
		"id=T1&nosuch=1",
		"id=NOPE",
		"seed=1",
		"id=T1&seed=-1",
		"id=T1&label=%zz",
		"id=T1;rows=2",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		job, err := reg.ParseJob(q)
		if err != nil {
			return
		}
		merged, err := job.Scenario.Params().Merge(job.Params)
		if err != nil {
			return
		}
		key := experiment.CacheKey(job.Scenario.ID(), merged, job.Seed)

		again := url.Values{}
		for name, text := range merged.Formatted() {
			again.Set(name, text)
		}
		again.Set("id", job.Scenario.ID())
		again.Set("seed", strconv.FormatUint(job.Seed, 10))
		job2, err := reg.ParseJob(again)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) rejected: %v", again.Encode(), raw, err)
		}
		merged2, err := job2.Scenario.Params().Merge(job2.Params)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): merge: %v", again.Encode(), raw, err)
		}
		if key2 := experiment.CacheKey(job2.Scenario.ID(), merged2, job2.Seed); key2 != key {
			t.Fatalf("query %q re-encoded as %q changed the cache key", raw, again.Encode())
		}
	})
}
