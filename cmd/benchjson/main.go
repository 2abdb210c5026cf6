// Command benchjson converts `go test -bench` output on stdin into a stable
// JSON benchmark baseline (name, iterations, ns/op, B/op, allocs/op per
// benchmark). It is the backend of `make bench-json`, which records the
// bgpsim engine + E1–E10 experiment benchmarks into BENCH_bgpsim.json so the
// repo's perf trajectory is tracked in-tree.
//
// Repeated result lines of one benchmark (`go test -count N`) fold into one
// row: median ns/op, B/op, allocs/op and custom metrics, the ns/op min and
// max, and the sample count.
//
// With -compare it becomes a regression gate instead: the fresh results on
// stdin are checked against a committed baseline, and any benchmark whose
// ns/op regressed more than -max-regress percent, or whose B/op regressed
// more than a fixed 10%, fails the run (exit 1).
// Benchmarks present on only one side are reported but never fatal, so
// adding or retiring benchmarks does not wedge the gate.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH.json
//	go test -run '^$' -bench . -benchmem ./... | benchjson -compare BENCH.json -max-regress 25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "write the JSON baseline here (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to gate against instead of writing one")
	maxRegress := flag.Float64("max-regress", 25, "with -compare: max tolerated ns/op regression, percent")
	flag.Parse()

	cur, err := parseBenchOutput(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}

	if *compare != "" {
		buf, err := os.ReadFile(*compare)
		if err != nil {
			log.Fatal(err)
		}
		var base Baseline
		if err := json.Unmarshal(buf, &base); err != nil {
			log.Fatalf("parsing baseline %s: %v", *compare, err)
		}
		report, regressed := compareBaselines(cur, base, *maxRegress)
		for _, line := range report {
			fmt.Println(line)
		}
		if regressed {
			log.Fatalf("regressions above %g%% ns/op or %d%% B/op against %s", *maxRegress, maxBytesRegressPct, *compare)
		}
		fmt.Printf("ok: no benchmark regressed more than %g%% ns/op or %d%% B/op against %s\n", *maxRegress, maxBytesRegressPct, *compare)
		return
	}

	buf, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(cur.Benchmarks))
}
