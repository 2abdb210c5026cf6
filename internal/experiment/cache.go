package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
)

// cacheSchemaVersion versions the cached Result encoding and the key
// derivation itself. Bump it whenever the Result JSON shape, the cell
// formatting semantics, or the canonical param encoding change, so stale
// entries miss instead of decoding into the wrong shape (or worse, hitting
// under a colliding key).
//
// v2: Values.Canonical() became injective (length-prefixed records) and the
// key's own fields became length-prefixed; v1 entries miss cleanly.
const cacheSchemaVersion = 2

// moduleVersion identifies the code that produced a cached entry. Release
// builds get the module version; source builds get the VCS revision when the
// build recorded one, else "(devel)". It is part of every cache key, so a
// rebuilt binary with different code never serves another build's results
// unless the build metadata genuinely matches. debug.ReadBuildInfo walks the
// whole build-settings table, so the value is computed once — CacheKey is on
// humnetd's per-request hot path.
var moduleVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return bi.Main.Version + "+" + s.Value
		}
	}
	return bi.Main.Version
})

// writeField appends one length-prefixed key ingredient. The prefix makes
// field boundaries part of the encoding, so an ingredient containing the
// separator byte can never alias a neighbouring field.
func writeField(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
	b.WriteByte('\n')
}

// CacheKey is the content address of one scenario execution:
// hash(schema version, module version, scenario ID, seed, canonical params),
// every ingredient length-prefixed. Equal inputs — and only equal inputs —
// share a key, so a warm cache is safe to reuse across runs of the same
// build.
func CacheKey(scenarioID string, p Values, seed uint64) string {
	var b strings.Builder
	writeField(&b, "v"+strconv.Itoa(cacheSchemaVersion))
	writeField(&b, moduleVersion())
	writeField(&b, scenarioID)
	writeField(&b, strconv.FormatUint(seed, 10))
	writeField(&b, p.Canonical())
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Cache is a content-addressed on-disk Result store: one JSON file per key.
// Writes are atomic (temp file + rename), so a crashed run never leaves a
// half-written entry, and any unreadable or undecodable entry is treated as
// a miss and overwritten by the next Put.
type Cache struct {
	dir string
}

// OpenCache creates dir if needed and returns a cache rooted there.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiment: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads the Result stored under key and verifies it actually belongs to
// scenario wantID. Any failure — absent, unreadable, or corrupt entry, or a
// well-formed entry whose Result.ID names a different scenario (a renamed or
// hand-edited file) — is reported as a miss; the cache self-heals on the
// next Put. Without the ID check, any well-formed JSON at the right path
// would be served verbatim, so a stray rename could hand one scenario
// another scenario's tables.
func (c *Cache) Get(key, wantID string) (*Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false
	}
	if res.ID != wantID {
		return nil, false
	}
	return &res, true
}

// Put stores res under key atomically.
func (c *Cache) Put(key string, res *Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("experiment: encode cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("experiment: cache put: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("experiment: cache put: %w", werr)
		}
		return fmt.Errorf("experiment: cache put: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("experiment: cache put: %w", err)
	}
	return nil
}
