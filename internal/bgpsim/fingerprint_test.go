package bgpsim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/rng"
)

// routesFingerprintShapes are the topologies TestConvergeRoutesFingerprint
// converges: classic three-tier worlds (some with extra originations upstream,
// a leaker, a provider cycle that runs into the round cap, and a customer
// that is also recorded as a peer), the E14-sized hierarchy, a hub shape, and
// the 10k-AS shape of the benchmarks.
var routesFingerprintShapes = []struct {
	name  string
	o     HierarchyOpts
	seeds uint64
	long  bool
	twist bool // add upstream origins, a leaker, a provider cycle and a customer-peer pair
}{
	{"classic", HierarchyOpts{NMid: 20, NStub: 80}, 4, false, false},
	{"classic-twisted", HierarchyOpts{NMid: 20, NStub: 80}, 4, false, true},
	{"mids200", HierarchyOpts{NMid: 200, NStub: 900}, 3, false, false},
	{"hubs", HierarchyOpts{NMid: 400, NStub: 2000, Hubs: 12, OriginEvery: 8}, 2, false, false},
	{"as10k", HierarchyOpts{NMid: 1600, NStub: 8400, Hubs: 24, OriginEvery: 16}, 3, true, false},
}

// twistHierarchy adds to h what a generated hierarchy never has: prefixes
// originated at a tier-1 and a mid (routes learned downhill), a leaking mid,
// a provider cycle among three mids, and a stub that is both a customer and a
// peer of its first provider.
func twistHierarchy(t *testing.T, h *Hierarchy) {
	t.Helper()
	topo, m := h.Topo, h.Mids
	for _, err := range []error{
		topo.Originate(h.Tier1[0], "pfx-tier1"),
		topo.Originate(m[len(m)/2], "pfx-mid"),
		topo.AddProviderCustomer(m[1], m[2]),
		topo.AddProviderCustomer(m[2], m[3]),
		topo.AddProviderCustomer(m[3], m[1]),
		topo.AddPeer(topo.Providers(h.Stubs[0])[0], h.Stubs[0]),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !topo.MarkLeaker(m[5]) {
		t.Fatalf("MarkLeaker(%d) failed", m[5])
	}
}

// hashRoutes writes every (AS, prefix) Route of rt — prefix, Learned and
// path, or a marker for no route — to h, in ASN then prefix order.
func hashRoutes(h hash.Hash, topo *Topology, rt *RoutingTables) {
	prefixes := topoPrefixes(topo)
	var buf []byte
	for _, n := range topo.ASNs() {
		buf = binary.AppendVarint(buf[:0], int64(n))
		for _, p := range prefixes {
			r := rt.Route(n, p)
			if r == nil {
				buf = append(buf, 0xff)
				continue
			}
			buf = append(buf, r.Prefix...)
			buf = append(buf, 0, byte(r.Learned))
			buf = binary.AppendUvarint(buf, uint64(len(r.Path)))
			for _, hop := range r.Path {
				buf = binary.AppendVarint(buf, int64(hop))
			}
		}
		h.Write(buf)
	}
}

// TestConvergeRoutesFingerprint pins every selected route of cold
// convergence over the shapes above, seeds 1..k each, by one SHA-256. The
// hash was recorded before the convergence kernel's work queue and best-path
// update were pruned; it must never be edited to absorb a change. The 10k-AS
// shape is skipped under -short, which therefore checks its own hash.
func TestConvergeRoutesFingerprint(t *testing.T) {
	want := map[bool]string{
		false: "4e07d6e47b26512de63f6ca88998b69499b707bea13e2a8d790ea871d1601839",
		true:  "26c46d4fc1f9f806f77ed280bd833017b38fc897349b7cf48462cd2362bdbcb9",
	}[testing.Short()]
	h := sha256.New()
	for _, s := range routesFingerprintShapes {
		if s.long && testing.Short() {
			continue
		}
		for seed := uint64(1); seed <= s.seeds; seed++ {
			hier, err := BuildHierarchyOpts(rng.New(seed), s.o)
			if err != nil {
				t.Fatal(err)
			}
			if s.twist {
				twistHierarchy(t, hier)
			}
			rt, err := hier.Topo.ConvergeCtx(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s/%d\n", s.name, seed)
			hashRoutes(h, hier.Topo, rt)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("route fingerprint (short=%v) = %s, want %s", testing.Short(), got, want)
	}
}
