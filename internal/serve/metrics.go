package serve

import (
	"sync/atomic"
	"time"
)

// latencyBucketsUS are the upper bounds (microseconds) of the /run latency
// histogram; the final implicit bucket is +Inf. Log-spaced so one table
// spans LRU hits (tens of µs) through cold scenario executions (seconds).
var latencyBucketsUS = [...]int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

// metrics is the server's counter set. Everything is atomic: handlers touch
// it concurrently and /metrics reads it without stopping the world.
type metrics struct {
	requests  atomic.Int64 // every HTTP request, any endpoint
	runOK     atomic.Int64 // /run 200s
	lruHits   atomic.Int64 // /run responses served from the in-memory LRU
	coalesced atomic.Int64 // /run requests answered with another request's fill
	bad       atomic.Int64 // /run 400s (malformed id/seed/params)
	notFound  atomic.Int64 // /run 404s (unknown scenario)
	shedQueue atomic.Int64 // /run 429s (admission queue full)
	shedWait  atomic.Int64 // /run 503s (queue deadline expired)
	failed    atomic.Int64 // /run 500s (scenario or render failure)

	latency [len(latencyBucketsUS) + 1]atomic.Int64
	latSum  atomic.Int64 // total observed latency, microseconds
}

// observe records one /run latency in the histogram.
func (m *metrics) observe(d time.Duration) {
	us := d.Microseconds()
	m.latSum.Add(us)
	for i, ub := range latencyBucketsUS {
		if us <= ub {
			m.latency[i].Add(1)
			return
		}
	}
	m.latency[len(latencyBucketsUS)].Add(1)
}

// LatencyBucket is one histogram row in the /metrics response.
type LatencyBucket struct {
	// LEUS is the bucket's inclusive upper bound in microseconds; 0 marks
	// the +Inf overflow bucket.
	LEUS  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// Snapshot is the /metrics response body: request counters, cache-tier hit
// counts with ratios, and the /run latency histogram. Field order is the
// serialization order, so equal states render to equal bytes.
type Snapshot struct {
	Requests int64 `json:"requests"`
	RunOK    int64 `json:"run_ok"`

	// Cache tiers, outermost first: an LRU hit never reaches the disk
	// cache, a disk hit never executes, and Coalesced callers shared
	// another request's in-flight execution. Executed counts actual
	// scenario runs — the number the "zero re-execution" acceptance check
	// reads. DiskCorrupt counts disk entries found but unusable (unreadable,
	// undecodable, or naming another scenario); each also became a miss.
	LRUHits     int64 `json:"lru_hits"`
	DiskHits    int64 `json:"disk_hits"`
	DiskCorrupt int64 `json:"disk_corrupt"`
	Coalesced   int64 `json:"coalesced"`
	Executed    int64 `json:"executed"`

	LRUHitRatio  float64 `json:"lru_hit_ratio"`
	DiskHitRatio float64 `json:"disk_hit_ratio"`
	ExecRatio    float64 `json:"exec_ratio"`

	BadRequest  int64           `json:"bad_request"`
	NotFound    int64           `json:"not_found"`
	ShedQueue   int64           `json:"shed_queue_full"`
	ShedWait    int64           `json:"shed_wait_timeout"`
	Failed      int64           `json:"failed"`
	LRUSize     int             `json:"lru_size"`
	LRUBytes    int64           `json:"lru_bytes"`
	LatSumUS    int64           `json:"latency_sum_us"`
	LatencyHist []LatencyBucket `json:"latency_hist"`
}

// ratio is a safe division for hit-rate reporting.
func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
