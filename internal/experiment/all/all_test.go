package all

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestNoParamPanics runs every registered scenario with each Int param at 0
// and -1 and each Uint param at 0, one override at a time, the way a /run
// query can ask for them. Out-of-range input must come back as an error or
// as a result, never as a recovered panic: a panic reaches a /run client as
// a 500 with no word about which param was wrong.
func TestNoParamPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario about a dozen times; skipped under -short")
	}
	r := &experiment.Runner{Workers: 1, ScenarioWorkers: 2}
	for _, sc := range experiment.All() {
		for _, spec := range sc.Params() {
			var probes []any
			switch spec.Kind {
			case experiment.Int:
				probes = []any{0, -1}
			case experiment.Uint:
				probes = []any{uint64(0)}
			}
			for _, v := range probes {
				_, err := r.RunOne(context.Background(), experiment.Job{
					Scenario: sc,
					Params:   experiment.Values{spec.Name: v},
					Seed:     sc.DefaultSeed(),
				})
				if err != nil && strings.Contains(err.Error(), "panicked") {
					t.Errorf("id=%s&%s=%v: %v", sc.ID(), spec.Name, v, err)
				}
			}
		}
	}
}

// TestAuxStudyGolden pins the /run body (RenderOneJSON of the Runner's
// stamped Result) of the registered studies with no golden elsewhere, by
// SHA-256, at their defaults and at one non-default query each. Any change
// that moves a byte of these tables, titles, claims or params fails here.
func TestAuxStudyGolden(t *testing.T) {
	cases := []struct{ query, want string }{
		{"id=ethno-reflection", "53b6ca80a1b09d92e02841cbaa827bc7e8e2c45a303ffc097adc953dbacaa5c3"},
		{"id=ethno-reflection&gains=0.1,0.2", "cc323a49d70338e46ddfd93aa390be65c78732c530c24a1f2cc7589fe0cd24a5"},
		{"id=ethno-triangulation", "fa1c1013b1aca8ac664146bef34cd88421c3a5fb2266587b2c9df952cacf3b8b"},
		{"id=ethno-triangulation&notes=61,140", "cdfca87761f735e7dc32d12d872ef28d94ec52435cd92d2cdc440f73234cebb7"},
		{"id=cn-gateway", "e324a13b77227b7d54f3c4f468efee14e9fb52452ac539c50b121231a06f2af5"},
		{"id=cn-gateway&nodes=20", "4767012263c64e90be9470125113ab17ce01a80d1c5b27e6f0a653d0667e5fdc"},
	}
	r := &experiment.Runner{Workers: 1}
	for _, tc := range cases {
		t.Run(tc.query, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			job, err := experiment.Default.ParseJob(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunOne(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			body, err := experiment.RenderOneJSON(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("/run body sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
