package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCacheKeySensitivity(t *testing.T) {
	p := Values{"rows": 4, "scale": 1.5}
	base := CacheKey("T1", p, 7)
	if base != CacheKey("T1", Values{"scale": 1.5, "rows": 4}, 7) {
		t.Fatal("key depends on params map construction order")
	}
	for name, other := range map[string]string{
		"scenario ID": CacheKey("T2", p, 7),
		"seed":        CacheKey("T1", p, 8),
		"params":      CacheKey("T1", Values{"rows": 5, "scale": 1.5}, 7),
	} {
		if other == base {
			t.Fatalf("key ignores %s", name)
		}
	}
}

// TestCacheHitIsByteIdentical is the core warm-cache contract: a hit must
// yield a Result whose every rendering equals the cold run's bit-for-bit,
// and the runner counters must show the second run executed nothing.
func TestCacheHitIsByteIdentical(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := def{synthDef("T1")}
	job := Job{Scenario: sc, Params: Values{"rows": 3}, Seed: 9}

	cold := &Runner{Cache: cache}
	coldRes, err := cold.RunOne(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("cold stats = %+v, want 0 hits / 1 miss", st)
	}

	warm := &Runner{Cache: cache}
	warmRes, err := warm.RunOne(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats = %+v, want 1 hit / 0 misses (scenario must not re-execute)", st)
	}

	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Fatalf("cached Result differs from cold run:\ncold: %+v\nwarm: %+v", coldRes, warmRes)
	}
	if RenderMarkdown([]*Result{coldRes}) != RenderMarkdown([]*Result{warmRes}) {
		t.Fatal("Markdown rendering of cached Result differs from cold run")
	}
	coldJSON, err := RenderJSON([]*Result{coldRes})
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := RenderJSON([]*Result{warmRes})
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(warmJSON) {
		t.Fatal("JSON rendering of cached Result differs from cold run")
	}
	coldOne, err := RenderOneJSON(coldRes)
	if err != nil {
		t.Fatal(err)
	}
	warmOne, err := RenderOneJSON(warmRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldOne) != string(warmOne) {
		t.Fatal("/run body rendering of cached Result differs from cold run")
	}
}

func TestCacheMissOnDifferentInputs(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache}
	ctx := context.Background()
	sc := def{synthDef("T1")}
	if _, err := r.RunOne(ctx, Job{Scenario: sc, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunOne(ctx, Job{Scenario: sc, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunOne(ctx, Job{Scenario: sc, Seed: 1, Params: Values{"rows": 5}}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 misses (seed and params must be part of the key)", st)
	}
}

// TestCacheCorruptEntryIsMiss: an entry that does not decode into a Result
// — truncated JSON, or a schema-v2 typed-cell body under the current key —
// is a counted miss that the re-run overwrites, never a Result with empty
// cells.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"not json", "{not json"},
		{"typed cells", typedCellEntry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			sc := def{synthDef("T1")}
			job := NewJob(sc)
			r := &Runner{Cache: cache}
			if _, err := r.RunOne(context.Background(), job); err != nil {
				t.Fatal(err)
			}
			if n := cache.Corrupt(); n != 0 {
				t.Fatalf("Corrupt() = %d after a miss on an absent entry, want 0", n)
			}

			entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
			if err != nil || len(entries) != 1 {
				t.Fatalf("expected exactly one cache entry, got %v (err %v)", entries, err)
			}
			if err := os.WriteFile(entries[0], []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}

			r2 := &Runner{Cache: cache}
			res, err := r2.RunOne(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if st := r2.Stats(); st.Hits != 0 || st.Misses != 1 {
				t.Fatalf("stats after corruption = %+v, want a self-healing miss", st)
			}
			if n := cache.Corrupt(); n != 1 {
				t.Fatalf("Corrupt() = %d after one corrupt read, want 1", n)
			}
			if res == nil || len(res.Tables) == 0 || res.Tables[0].Rows[0][0] != "x0" {
				t.Fatalf("re-run after corrupt entry did not produce the scenario's rows: %+v", res)
			}
			// The Put on the miss path must have replaced the corrupt entry.
			if _, ok := cache.Get(CacheKey(sc.ID(), mustMerge(t, sc, nil), job.Seed), sc.ID()); !ok {
				t.Fatal("corrupt entry not rewritten after the re-run")
			}
		})
	}
}

func TestOpenCacheRejectsEmptyDir(t *testing.T) {
	if _, err := OpenCache(""); err == nil {
		t.Fatal("OpenCache(\"\") succeeded")
	}
}

func mustMerge(t *testing.T, s Scenario, over Values) Values {
	t.Helper()
	v, err := s.Params().Merge(over)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
