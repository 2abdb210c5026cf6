package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCanonicalInjective is the collision regression test: under the old
// unprefixed "name=value\n" encoding each pair below rendered to identical
// bytes, so two different parameter assignments shared one cache key and
// silently served each other's results. The length-prefixed encoding must
// keep them distinct — in Canonical() and in the derived CacheKey.
func TestCanonicalInjective(t *testing.T) {
	pairs := []struct {
		name string
		a, b Values
	}{
		{
			// Old encoding of both: "a=x\nb=y\n" — a newline inside a
			// string value forges a second record.
			name: "newline in value forges a record",
			a:    Values{"a": "x\nb=y"},
			b:    Values{"a": "x", "b": "y"},
		},
		{
			// Old encoding of both: "a=b=c\n" — '=' is ambiguous between
			// name and value.
			name: "equals sign ambiguity",
			a:    Values{"a": "b=c"},
			b:    Values{"a=b": "c"},
		},
		{
			// Old encoding of both: "a=1\nb=2\n".
			name: "value swallows following param",
			a:    Values{"a": "1\nb=2"},
			b:    Values{"a": "1", "b": "2"},
		},
	}
	for _, p := range pairs {
		if p.a.Canonical() == p.b.Canonical() {
			t.Errorf("%s: Canonical() collides:\n%v\n%v\nencoding %q",
				p.name, p.a, p.b, p.a.Canonical())
		}
		if CacheKey("T1", p.a, 7) == CacheKey("T1", p.b, 7) {
			t.Errorf("%s: CacheKey collides for %v and %v", p.name, p.a, p.b)
		}
	}
}

// oldCacheKeyV1 reproduces the pre-fix key derivation (schema v1, unprefixed
// fields and params) so the schema-bump test can plant an entry exactly
// where the old code would have looked it up.
func oldCacheKeyV1(scenarioID string, p Values, seed uint64) string {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("v1\n")
	b.WriteString(moduleVersion())
	b.WriteByte('\n')
	b.WriteString(scenarioID)
	b.WriteByte('\n')
	b.WriteString(strconv.FormatUint(seed, 10))
	b.WriteByte('\n')
	for _, name := range names {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(FormatValue(p[name]))
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestOldFormatEntriesMissCleanly plants a well-formed entry under the v1
// key of a job and asserts the hardened runner never sees it: the schema
// bump moved every key, so old-format entries are unreachable rather than
// wrongly decodable.
func TestOldFormatEntriesMissCleanly(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := def{synthDef("T1")}
	merged := mustMerge(t, sc, nil)
	seed := sc.DefaultSeed()

	oldKey := oldCacheKeyV1(sc.ID(), merged, seed)
	newKey := CacheKey(sc.ID(), merged, seed)
	if oldKey == newKey {
		t.Fatal("schema bump did not move the cache key")
	}
	poisoned := &Result{ID: sc.ID(), Title: "stale v1 entry", Seed: seed}
	if err := cache.Put(oldKey, poisoned); err != nil {
		t.Fatal(err)
	}

	r := &Runner{Cache: cache}
	res, err := r.RunOne(context.Background(), NewJob(sc))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want a clean miss past the v1 entry", st)
	}
	if res.Title == poisoned.Title {
		t.Fatal("runner served the stale v1 entry")
	}
}

// TestCacheGetRejectsMismatchedID: a well-formed entry whose Result.ID names
// another scenario (a renamed or hand-edited file) must read as a miss, both
// at the Cache layer and through the Runner.
func TestCacheGetRejectsMismatchedID(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := def{synthDef("T1")}
	merged := mustMerge(t, sc, nil)
	key := CacheKey(sc.ID(), merged, sc.DefaultSeed())

	alien := &Result{ID: "T2", Title: "someone else's table", Seed: 1}
	if err := cache.Put(key, alien); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key, sc.ID()); ok {
		t.Fatal("Get served an entry whose Result.ID names a different scenario")
	}
	if res, ok := cache.Get(key, "T2"); !ok || res.Title != alien.Title {
		t.Fatal("Get with the matching ID should still decode the entry")
	}

	r := &Runner{Cache: cache}
	res, err := r.RunOne(context.Background(), NewJob(sc))
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the mismatched entry treated as a miss", st)
	}
	if res.ID != sc.ID() || res.Title == alien.Title {
		t.Fatalf("runner served the mismatched entry: %+v", res)
	}
	// The miss path must have healed the entry with the real result.
	if healed, ok := cache.Get(key, sc.ID()); !ok || healed.ID != sc.ID() {
		t.Fatal("mismatched entry not overwritten after the re-run")
	}
}

// TestCacheConcurrentPutSameKey races N writers on one key: the atomic
// temp+rename contract means a concurrent reader sees either a miss or one
// writer's complete entry — never a torn file.
func TestCacheConcurrentPutSameKey(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{ID: "T1", Title: "concurrent", Seed: 9}
	res.AddTable("T1", "t", "a").AddRow(I(1))
	key := CacheKey("T1", Values{"rows": 1}, 9)

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = cache.Put(key, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, ok := cache.Get(key, "T1")
	if !ok {
		t.Fatal("entry unreadable after concurrent Puts")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("entry torn by concurrent Puts:\ngot  %+v\nwant %+v", got, res)
	}
}

// TestCacheGetDuringPut overlaps a reader loop with a writer loop on one
// key: every successful Get must decode a complete, ID-matching entry.
func TestCacheGetDuringPut(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{ID: "T1", Title: "overlap", Seed: 3}
	res.AddTable("T1", "t", "a", "b").AddRow(I(1), F3(0.5))
	key := CacheKey("T1", Values{"rows": 2}, 3)
	// Seed the entry so the reader is guaranteed at least one hit even if
	// it outpaces the writer goroutine's first Put.
	if err := cache.Put(key, res); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cache.Put(key, res); err != nil {
				writeErr = err
				return
			}
		}
	}()

	hits := 0
	for i := 0; i < 500; i++ {
		got, ok := cache.Get(key, "T1")
		if !ok {
			continue // a miss is legal mid-rename; a torn read is not
		}
		hits++
		if !reflect.DeepEqual(got, res) {
			close(stop)
			wg.Wait()
			t.Fatalf("Get observed a torn entry at iteration %d: %+v", i, got)
		}
	}
	close(stop)
	wg.Wait()
	if writeErr != nil {
		t.Fatalf("writer failed: %v", writeErr)
	}
	if hits == 0 {
		t.Fatal("reader never observed a complete entry")
	}
}

// TestRunOnePanicIsError: a scenario panic comes back from RunOne as an
// error naming the panic, and a later identical job executes afresh.
func TestRunOnePanicIsError(t *testing.T) {
	var execs atomic.Int64
	d := synthDef("T1")
	d.Run = func(ctx context.Context, p Values, seed uint64) (*Result, error) {
		execs.Add(1)
		panic("scenario blew up")
	}
	r := &Runner{}
	job := NewJob(def{d})
	for i := 0; i < 2; i++ {
		_, err := r.RunOne(context.Background(), job)
		if err == nil || !strings.Contains(err.Error(), "scenario blew up") {
			t.Fatalf("run %d: err = %v, want the scenario panic as an error", i, err)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("scenario executed %d times, want 2", n)
	}
}

// BenchmarkCacheKey is the humnetd hot-path cost of one key derivation.
// Memoizing moduleVersion removed a debug.ReadBuildInfo walk from every
// call — BenchmarkModuleVersionUnmemoized prices what that walk cost
// (~1.5µs, 1184 B, 7 allocs per call on the reference box, more than the
// entire memoized key derivation at ~1.2µs/14 allocs).
func BenchmarkCacheKey(b *testing.B) {
	p := Values{"rows": 4, "scale": 1.5, "label": "x"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CacheKey("E7", p, uint64(i))
	}
}

// BenchmarkModuleVersionUnmemoized measures what every CacheKey call paid
// before the sync.Once fix — kept as the comparison baseline for the
// memoized path exercised by BenchmarkCacheKey.
func BenchmarkModuleVersionUnmemoized(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			b.Fatal("no build info")
		}
		v := bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				v = bi.Main.Version + "+" + s.Value
			}
		}
		_ = v
	}
}
