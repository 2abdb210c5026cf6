package experiment

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzCacheGet writes arbitrary bytes where a cache entry lives. Get must
// either miss and count the entry corrupt, or return a Result of the wanted
// scenario that both renderers print without panicking: a disk entry is
// untrusted input on humnetd's serving path.
func FuzzCacheGet(f *testing.F) {
	res := &Result{ID: "T1", Title: "fuzz", Seed: 3, Params: map[string]string{"n": "2"}}
	res.AddTable("T1", "table", "a", "b").AddRow("1", "n/a")
	good, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"id":"T1","tables":[null]}`))
	f.Add([]byte(`{"id":"T1","tables":[{"columns":["a"],"rows":[["1","2"],null]}]}`))
	f.Add([]byte(`{"id":"T2","tables":[]}`))
	f.Add([]byte(`{"id":"T1"`))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		const key = "entry"
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(key, "T1")
		if !ok {
			if c.Corrupt() != 1 {
				t.Fatalf("miss counted %d corrupt entries, want 1", c.Corrupt())
			}
			return
		}
		if got.ID != "T1" || c.Corrupt() != 0 {
			t.Fatalf("hit for scenario %q with %d corrupt, want T1 and 0", got.ID, c.Corrupt())
		}
		if _, err := RenderOneJSON(got); err != nil {
			t.Fatalf("RenderOneJSON of a hit: %v", err)
		}
		_ = RenderMarkdown([]*Result{got})
	})
}
