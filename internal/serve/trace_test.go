package serve

import (
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/experiment"
)

func traceRegistry(t *testing.T) *experiment.Registry {
	t.Helper()
	reg := experiment.NewRegistry()
	for _, id := range []string{"T1", "T2", "T3"} {
		if err := reg.Register(testDef(id)); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestBuildTraceIsDeterministic(t *testing.T) {
	reg := traceRegistry(t)
	spec := TraceSpec{
		IDs: []string{"T1", "T2", "T3"}, Registry: reg,
		Requests: 500, Variants: 4, ZipfS: 1.1, Seed: 42, ParamEcho: 0.3,
	}
	a, da, err := BuildTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, db, err := BuildTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if da != db || !reflect.DeepEqual(a, b) {
		t.Fatal("equal specs built different traces")
	}
	if len(a) != 500 {
		t.Fatalf("trace length = %d, want 500", len(a))
	}
	if da < 1 || da > 12 {
		t.Fatalf("distinct = %d, want within the 12-entry universe", da)
	}

	// A different seed reorders the trace.
	spec2 := spec
	spec2.Seed = 43
	c, _, err := BuildTrace(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds built identical traces")
	}
}

func TestBuildTraceDistinctCountsSampledTriples(t *testing.T) {
	reg := traceRegistry(t)
	// Heavy skew over a big universe and a short trace: distinct must count
	// only triples that actually appear, not the whole universe.
	reqs, distinct, err := BuildTrace(TraceSpec{
		IDs: []string{"T1", "T2", "T3"}, Registry: reg,
		Requests: 20, Variants: 50, ZipfS: 2.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	uniq := map[string]bool{}
	for _, r := range reqs {
		uniq[r.ScenarioID+"/"+strconv.FormatUint(r.Seed, 10)] = true
	}
	if distinct != len(uniq) {
		t.Fatalf("distinct = %d, but trace holds %d unique triples", distinct, len(uniq))
	}
	if distinct > 150 {
		t.Fatalf("distinct = %d exceeds universe", distinct)
	}
}

func TestBuildTraceQueriesParseAndCanonicalize(t *testing.T) {
	reg := traceRegistry(t)
	reqs, _, err := BuildTrace(TraceSpec{
		IDs: []string{"T1", "T2"}, Registry: reg,
		Requests: 200, Variants: 2, ZipfS: 1.0, Seed: 9, ParamEcho: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawEcho := false
	for i, r := range reqs {
		q, err := url.ParseQuery(r.Query)
		if err != nil {
			t.Fatalf("request %d query %q: %v", i, r.Query, err)
		}
		job, err := reg.ParseJob(q)
		if err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
		sc, over, seed := job.Scenario, job.Params, job.Seed
		if sc.ID() != r.ScenarioID || seed != r.Seed {
			t.Fatalf("request %d parsed to (%s, %d), want (%s, %d)", i, sc.ID(), seed, r.ScenarioID, r.Seed)
		}
		if len(over) > 0 {
			sawEcho = true
			// Echoed defaults must canonicalize onto the defaults-only key.
			merged, err := sc.Params().Merge(over)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := sc.Params().Merge(nil)
			if err != nil {
				t.Fatal(err)
			}
			if experiment.CacheKey(sc.ID(), merged, seed) != experiment.CacheKey(sc.ID(), plain, seed) {
				t.Fatalf("request %d: echoed defaults changed the cache key (query %q)", i, r.Query)
			}
		}
	}
	if !sawEcho {
		t.Fatal("ParamEcho=1.0 produced no echoed-param requests")
	}
}

func TestBuildTraceRejectsBadSpecs(t *testing.T) {
	reg := traceRegistry(t)
	cases := []TraceSpec{
		{IDs: nil, Registry: reg, Requests: 1},
		{IDs: []string{"NOPE"}, Registry: reg, Requests: 1},
		{IDs: []string{"T1"}, Registry: reg, Requests: -1},
		{IDs: []string{"T1"}, Registry: reg, Requests: 1, ZipfS: -1},
		{IDs: []string{"T1"}, Registry: reg, Requests: 1, ParamEcho: 2},
	}
	for i, spec := range cases {
		if _, _, err := BuildTrace(spec); err == nil {
			t.Errorf("case %d: bad spec %+v accepted", i, spec)
		}
	}
}

func TestBuildTraceZipfSkewsPopularity(t *testing.T) {
	reg := traceRegistry(t)
	reqs, _, err := BuildTrace(TraceSpec{
		IDs: []string{"T1", "T2", "T3"}, Registry: reg,
		Requests: 10_000, Variants: 8, ZipfS: 1.2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.ScenarioID+"/"+strconv.FormatUint(r.Seed, 10)]++
	}
	top := 0
	for _, n := range counts {
		if n > top {
			top = n
		}
	}
	// Under Zipf(1.2) over 24 ranks the head rank draws >20% of traffic;
	// uniform would give ~4.2%.
	if top < len(reqs)/6 {
		t.Fatalf("head triple drew %d/%d requests — no Zipf skew visible", top, len(reqs))
	}
}
