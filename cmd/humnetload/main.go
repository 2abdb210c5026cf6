// Command humnetload replays a deterministic, Zipf-skewed scenario trace
// against a running humnetd and reports latency/throughput — the "millions
// of users" north star made measurable. The trace is a pure function of its
// flags (internal/serve.BuildTrace): same flags, same request sequence,
// byte-for-byte. Because humnetd's responses are pure functions of
// (id, params, seed), the SHA-256 digest over all response bodies must be
// identical across repeats and across daemon restarts; -repeat > 1 asserts
// exactly that, and -expect-single-exec additionally reads /metrics to
// assert that repeated (id, seed, params) triples never re-executed their
// scenario (coalescing + LRU + disk cache doing their job).
//
// Usage:
//
//	humnetload -addr 127.0.0.1:8080 [-n 100000] [-variants 4] [-zipf 1.1]
//	           [-seed 1] [-workers 64] [-repeat 2] [-param-echo 0.25]
//	           [-scenarios E1,E2,...] [-timeout 60s]
//	           [-expect-single-exec]
//
// Per-repeat p50/p99/throughput and the response digest go to stdout.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
	"repro/internal/parallel"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("humnetload: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// repReport is one repeat's measurement.
type repReport struct {
	Requests      int
	Seconds       float64
	ThroughputRPS float64
	P50US         int64
	P99US         int64
	Digest        string
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("humnetload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "humnetd address, host:port (required)")
	n := fs.Int("n", 100_000, "requests per repeat")
	variants := fs.Int("variants", 4, "distinct seeds per scenario in the universe")
	zipfS := fs.Float64("zipf", 1.1, "Zipf popularity skew exponent (0 = uniform)")
	seed := fs.Uint64("seed", 1, "trace seed; equal seeds build byte-identical traces")
	workers := fs.Int("workers", 64, "concurrent client connections")
	repeat := fs.Int("repeat", 2, "times to replay the trace; digests must match across repeats")
	paramEcho := fs.Float64("param-echo", 0.25, "probability a request spells out default params explicitly")
	scenarios := fs.String("scenarios", "", "comma-separated scenario IDs (default: every report scenario)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request timeout")
	expectSingle := fs.Bool("expect-single-exec", false, "assert via /metrics that repeated triples never re-execute")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (start cmd/humnetd first)")
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1")
	}
	base := "http://" + *addr

	ids, err := selectIDs(*scenarios)
	if err != nil {
		return err
	}
	reqs, distinct, err := serve.BuildTrace(serve.TraceSpec{
		IDs:       ids,
		Requests:  *n,
		Variants:  *variants,
		ZipfS:     *zipfS,
		Seed:      *seed,
		ParamEcho: *paramEcho,
	})
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "trace: %d requests over %d scenarios x %d variants (%d distinct triples, zipf %.2f, seed %d)\n",
		len(reqs), len(ids), *variants, distinct, *zipfS, *seed); err != nil {
		return err
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *workers,
			MaxIdleConnsPerHost: *workers,
		},
	}

	before, err := fetchMetrics(client, base)
	if err != nil {
		return fmt.Errorf("fetch /metrics before run: %w (is humnetd up?)", err)
	}

	var reports []repReport
	for rep := 0; rep < *repeat; rep++ {
		r, err := replay(client, base, reqs, *workers)
		if err != nil {
			return fmt.Errorf("repeat %d: %w", rep+1, err)
		}
		reports = append(reports, r)
		if _, err := fmt.Fprintf(stdout, "rep %d: %d requests in %.2fs (%.1f req/s), p50 %s p99 %s, digest %s\n",
			rep+1, r.Requests, r.Seconds, r.ThroughputRPS,
			time.Duration(r.P50US)*time.Microsecond, time.Duration(r.P99US)*time.Microsecond,
			r.Digest[:16]); err != nil {
			return err
		}
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Digest != reports[0].Digest {
			return fmt.Errorf("response digest diverged: rep 1 %s vs rep %d %s — responses are not deterministic",
				reports[0].Digest, i+1, reports[i].Digest)
		}
	}

	after, err := fetchMetrics(client, base)
	if err != nil {
		return fmt.Errorf("fetch /metrics after run: %w", err)
	}
	executed := after.Executed - before.Executed
	if _, err := fmt.Fprintf(stdout,
		"server: executed %d scenarios for %d distinct triples across %d requests (lru hits +%d, disk hits +%d, coalesced +%d)\n",
		executed, distinct, len(reqs)**repeat,
		after.LRUHits-before.LRUHits, after.DiskHits-before.DiskHits, after.Coalesced-before.Coalesced); err != nil {
		return err
	}
	if *expectSingle {
		if executed > int64(distinct) {
			return fmt.Errorf("server executed %d scenarios for only %d distinct triples — repeated triples re-executed", executed, distinct)
		}
		if len(reports) > 1 {
			if _, err := fmt.Fprintln(stdout, "verified: byte-identical digests across repeats, zero re-executions of repeated triples"); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectIDs resolves the -scenarios flag: empty means every report scenario.
func selectIDs(csv string) ([]string, error) {
	if csv == "" {
		var ids []string
		for _, sc := range experiment.Report() {
			ids = append(ids, sc.ID())
		}
		return ids, nil
	}
	var ids []string
	for _, id := range strings.Split(csv, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := experiment.Get(id); !ok {
			return nil, fmt.Errorf("unknown scenario %q in -scenarios", id)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-scenarios selected no scenarios")
	}
	return ids, nil
}

// replay fires the trace at the daemon with the given concurrency and
// returns the measurement. Request i's result lands at index i
// (internal/parallel), so the digest is order-stable regardless of
// scheduling.
func replay(client *http.Client, base string, reqs []serve.TraceRequest, workers int) (repReport, error) {
	type sample struct {
		latUS int64
		sum   [sha256.Size]byte
	}
	start := time.Now()
	samples, err := parallel.Map(context.Background(), len(reqs), workers, func(i int) (sample, error) {
		t0 := time.Now()
		resp, err := client.Get(base + "/run?" + reqs[i].Query)
		if err != nil {
			return sample{}, err
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return sample{}, err
		}
		if resp.StatusCode != http.StatusOK {
			snippet := body
			if len(snippet) > 200 {
				snippet = snippet[:200]
			}
			return sample{}, fmt.Errorf("request %d (%s): status %d: %s", i, reqs[i].Query, resp.StatusCode, snippet)
		}
		return sample{latUS: time.Since(t0).Microseconds(), sum: sha256.Sum256(body)}, nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return repReport{}, err
	}

	digest := sha256.New()
	lats := make([]int64, len(samples))
	for i, s := range samples {
		_, _ = digest.Write(s.sum[:]) // hash.Hash.Write never returns an error
		lats[i] = s.latUS
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return repReport{
		Requests:      len(reqs),
		Seconds:       elapsed.Seconds(),
		ThroughputRPS: float64(len(reqs)) / elapsed.Seconds(),
		P50US:         percentile(lats, 50),
		P99US:         percentile(lats, 99),
		Digest:        hex.EncodeToString(digest.Sum(nil)),
	}, nil
}

// percentile reads the q-th percentile from sorted latencies.
func percentile(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*q + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// fetchMetrics reads and decodes the daemon's /metrics snapshot.
func fetchMetrics(client *http.Client, base string) (serve.Snapshot, error) {
	var snap serve.Snapshot
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap, nil
}
