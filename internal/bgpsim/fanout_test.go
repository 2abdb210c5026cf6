package bgpsim

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestApplyParallelFanOutMatchesCold drives Apply through the parallel
// branch of fanOut. The hierarchy is just large enough that a delta touching
// every column (a link flap or a leak toggle) spans more than
// serialWorkFloor cells, and small enough to stay cheap under -race. At
// workers 1, 2 and 4 it applies link flaps, a leak toggle and announces;
// after each Apply the live tables must equal a cold ConvergeCtx and the
// state fingerprint must equal the serial run's, and after unwinding the
// fingerprint must be the base's.
func TestApplyParallelFanOutMatchesCold(t *testing.T) {
	const nMid, nStub = 12, 176
	if n := (3 + nMid + nStub) * nStub; n < serialWorkFloor {
		t.Fatalf("%d cells: the hierarchy no longer reaches the parallel branch", n)
	}
	var serialFPs []uint64
	var baseFP uint64
	for _, workers := range []int{1, 2, 4} {
		h, err := BuildHierarchyOpts(rng.New(7), HierarchyOpts{NMid: nMid, NStub: nStub})
		if err != nil {
			t.Fatal(err)
		}
		c := convergeState(t, h.Topo, workers)
		if workers == 1 {
			baseFP = c.StateFingerprint()
		} else if fp := c.StateFingerprint(); fp != baseFP {
			t.Fatalf("workers=%d: base fingerprint %#x, serial %#x", workers, fp, baseFP)
		}
		var patches []*Patch
		for step, d := range parallelApplyDeltas(t, h) {
			label := fmt.Sprintf("workers=%d step %d (%s)", workers, step, FormatDelta(d))
			p, err := c.Apply(d)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			patches = append(patches, p)
			assertTablesMatchCold(t, label, c)
			fp := c.StateFingerprint()
			if workers == 1 {
				serialFPs = append(serialFPs, fp)
			} else if fp != serialFPs[step] {
				t.Fatalf("%s: fingerprint %#x, serial %#x", label, fp, serialFPs[step])
			}
		}
		for i := len(patches) - 1; i >= 0; i-- {
			c.Revert(patches[i])
		}
		if fp := c.StateFingerprint(); fp != baseFP {
			t.Fatalf("workers=%d: fingerprint %#x after unwinding, base %#x", workers, fp, baseFP)
		}
	}
}

// parallelApplyDeltas returns the event sequence of
// TestApplyParallelFanOutMatchesCold: a mid→stub link-down, a mid peering
// link-up, a tier-1→mid link-down, a mid's leak toggle and its reversal, an
// announce of a new prefix and a hijack of a stub's prefix.
func parallelApplyDeltas(t *testing.T, h *Hierarchy) []Delta {
	t.Helper()
	var midStub, tierMid *Delta
	for _, m := range h.Mids {
		for _, s := range h.Stubs {
			if midStub == nil && h.Topo.HasProviderCustomer(m, s) {
				midStub = &Delta{Kind: DeltaLinkDown, A: m, B: s}
			}
		}
		for _, t1 := range h.Tier1 {
			if tierMid == nil && h.Topo.HasProviderCustomer(t1, m) {
				tierMid = &Delta{Kind: DeltaLinkDown, A: t1, B: m}
			}
		}
	}
	a, b := h.Mids[0], h.Mids[len(h.Mids)-1]
	if midStub == nil || tierMid == nil || h.Topo.HasPeer(a, b) {
		t.Fatal("hierarchy lacks the links the sequence flaps")
	}
	victim, attacker := h.Stubs[0], h.Stubs[len(h.Stubs)-1]
	return []Delta{
		*midStub,
		{Kind: DeltaLinkUp, A: a, B: b, Peer: true},
		*tierMid,
		{Kind: DeltaLeakToggle, A: h.Mids[1]},
		{Kind: DeltaLeakToggle, A: h.Mids[1]},
		{Kind: DeltaAnnounce, A: h.Mids[2], Prefix: "pfx-new"},
		{Kind: DeltaAnnounce, A: attacker, Prefix: fmt.Sprintf("pfx-%d", victim)},
	}
}
