package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setup_s is corrected for the machine's speed. The machine this benchmark
// was tuned on is shared, and the same set-up runs a third slower, or
// worse, for minutes at a time (README.md, "Machine"), more than setup_s's
// bound. So each set-up is preceded by a few timings of refKernel, the
// benchmark's own fixed work, and its time is multiplied by refScale. The
// kernel never calls into the program: a change to the program moves the
// corrected set-up time exactly as it moves the raw one, while a slow spell
// of the machine slows the kernel and the set-up together.

// refNominal is refKernel's median time on the machine README.md
// describes; it only fixes the scale corrected set-up times are reported
// at.
const refNominal = 30 * time.Millisecond

// refChecksum is refWork(1). The kernel must never change: corrected
// set-up times from two versions of the benchmark compare only if they
// share it, and a test pins it.
const refChecksum = 0xac16184eb3536795

// refNodes sizes refKernel's graph: about 1 MB per goroutine, past the
// per-core caches like the program's own working sets.
const refNodes = 1 << 13

// refRounds is how many graphs refWork builds and searches.
const refRounds = 3

// refWork is one goroutine's share of refKernel: refRounds times, a seeded
// random graph built from per-node adjacency slices, breadth-first search
// from four sources with a map for distances, a sort, and hashing. That is
// the allocation, pointer chasing, map and sort work the program's hot
// paths do. It returns a checksum of everything it computed.
func refWork(seed uint64) uint64 {
	var sum uint64
	for r := uint64(0); r < refRounds; r++ {
		sum = sum*31 + refGraph(seed*refRounds+r)
	}
	return sum
}

func refGraph(seed uint64) uint64 {
	type node struct {
		adj []int32
		key float64
	}
	nodes := make([]*node, refNodes)
	for i := range nodes {
		nodes[i] = &node{}
	}
	x := seed | 1
	for e := 0; e < 4*refNodes; e++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a, b := int32(x%refNodes), int32((x>>32)%refNodes)
		nodes[a].adj = append(nodes[a].adj, b)
		nodes[b].adj = append(nodes[b].adj, a)
	}
	dist := make(map[int32]int32, refNodes)
	var sum uint64
	for src := int32(0); src < 4; src++ {
		clear(dist)
		dist[src] = 0
		queue := []int32{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range nodes[v].adj {
				if _, seen := dist[w]; !seen {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for i := range nodes {
			sum += uint64(dist[int32(i)]) * uint64(i+1)
		}
	}
	keys := make([]float64, refNodes)
	for i, n := range nodes {
		n.key = float64(len(n.adj)) + float64(dist[int32(i)])/8
		keys[i] = n.key
	}
	sort.Float64s(keys)
	buf := make([]byte, 32<<10)
	for i := range buf {
		buf[i] = byte(keys[i%refNodes])
	}
	var h [sha256.Size]byte
	for r := 0; r < 8; r++ {
		h = sha256.Sum256(buf)
		copy(buf[r*sha256.Size:], h[:])
	}
	return sum ^ binary.LittleEndian.Uint64(h[:])
}

// refKernel runs refWork on n goroutines at once, as the workloads keep n
// CPUs busy.
func refKernel(n int) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink[g%len(refSink)].Store(refWork(uint64(g + 1)))
		}()
	}
	wg.Wait()
}

// refSink keeps refWork's results live.
var refSink [4]atomic.Uint64

// refScale times refKernel probes times, each after a collection so it
// starts from the same heap state, and returns the square root of
// refNominal over their median. The square root halves the correction in
// log terms because a slow spell slows the kernel more than the set-ups:
// in one, the kernel took 2.9 times as long as an hour earlier and
// converge's set-up 2.0 times. README.md, "Spread", has the runs that chose
// it.
func refScale(nproc, probes int) float64 {
	ts := make([]float64, probes)
	for i := range ts {
		runtime.GC()
		t0 := time.Now()
		refKernel(nproc)
		ts[i] = float64(time.Since(t0))
	}
	return math.Sqrt(float64(refNominal) / median(ts))
}
