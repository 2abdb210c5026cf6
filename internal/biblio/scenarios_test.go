package biblio

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/experiment"
)

// TestGraphScenarioGolden pins the rendered biblio-graph output: the SHA-256
// of its JSON at 2 workers and the default broker count, per corpus shape
// and seed. Any change to the corpus generator, the coauthorship graph's
// construction or the graph algorithms that moves a byte fails here.
func TestGraphScenarioGolden(t *testing.T) {
	sc, ok := experiment.Get("biblio-graph")
	if !ok {
		t.Fatal("biblio-graph not registered")
	}
	cases := []struct {
		papers, authors int
		seed            uint64
		want            string
		long            bool
	}{
		{1000, 500, 1, "140775d9fe61b6e641a66284d0144c732ada1f50672474773fa8bb670cf080fb", false},
		{1000, 500, 2, "8c68494f625ca5f60250156a383a456f41bb4499ba9ccde23c84d9aca0c184cf", false},
		{1000, 500, 3, "4a30a88a48ee780423eb0d4ad635ad96c161551dd4f86efc8fbdc3addf7b2a85", false},
		{800, 400, 1, "3d05cd4f0e6337f414d4d5d77a4bbe03b49c1852c4e2e9504a5d88a19a98b7fa", false},
		{5000, 2500, 1, "3f878d00ff317081471158b123486131dbcb6c5fb6e08f5e42349b22f1b26d4c", true},
	}
	ctx := experiment.WithWorkers(context.Background(), 2)
	for _, tc := range cases {
		t.Run(fmt.Sprintf("papers=%d/authors=%d/seed=%d", tc.papers, tc.authors, tc.seed), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("registered-default corpus size; skipped under -short")
			}
			p, err := sc.Params().Merge(experiment.Values{"papers": tc.papers, "authors": tc.authors})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run(ctx, p, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			body, err := experiment.RenderOneJSON(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("rendered JSON sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
