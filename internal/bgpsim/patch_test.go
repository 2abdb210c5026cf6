package bgpsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestPatchHoldsOnlyWhatItUndid checks the undo record layout on the
// parallel fan-out fixture, serially and over four workers: after a link
// flap, a mid peering, a withdraw and a leak toggle (which re-converges
// every column cold),
// every part's log and record slice are exact-size (len == cap), the parts
// record each column that wrote exactly once, in column order, and no
// column that did not, and Cells() equals the logged cells minus the
// clothing writes. Every column whose cells or slab moved is recorded.
func TestPatchHoldsOnlyWhatItUndid(t *testing.T) {
	for _, workers := range []int{1, 4} {
		h, err := BuildHierarchyOpts(rng.New(7), HierarchyOpts{NMid: 12, NStub: 176})
		if err != nil {
			t.Fatal(err)
		}
		// A multi-homed stub's link: only the columns it routed over that
		// provider move, so the flap leaves some columns unwritten.
		var link Delta
		for _, s := range h.Stubs {
			if provs := h.Topo.Providers(s); len(provs) > 1 {
				link = Delta{Kind: DeltaLinkDown, A: provs[0], B: s}
				break
			}
		}
		if link.A == 0 {
			t.Fatal("the fixture has no multi-homed stub")
		}
		victim := h.OriginStubs[0]
		withdraw := Delta{Kind: DeltaWithdraw, A: victim, Prefix: fmt.Sprintf("pfx-%d", victim)}
		c := convergeState(t, h.Topo, workers)
		var patches []*Patch
		peering := Delta{Kind: DeltaLinkUp, A: h.Mids[0], B: h.Mids[len(h.Mids)-1], Peer: true}
		for _, d := range []Delta{link, link.inverse(), peering, withdraw, {Kind: DeltaLeakToggle, A: h.Mids[1]}} {
			label := fmt.Sprintf("workers=%d %s", workers, FormatDelta(d))
			before, lens := slices.Clone(c.e.rt.entries), slabLens(c)
			p, err := c.Apply(d)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			patches = append(patches, p)
			recorded, err := patchExact(c, p, before, lens)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if d == link && (recorded == 0 || recorded == len(lens)) {
				t.Fatalf("%s: %d of %d columns recorded; the flap must leave some unwritten", label, recorded, len(lens))
			}
		}
		for i := len(patches) - 1; i >= 0; i-- {
			c.Revert(patches[i])
		}
		assertTablesMatchCold(t, fmt.Sprintf("workers=%d unwound", workers), c)
	}
}

// patchExact checks p, just applied to c, against the table cells and slab
// lengths before the apply, and returns the number of columns it records.
func patchExact(c *Converged, p *Patch, before []entry, lens []int) (int, error) {
	rt := c.e.rt
	nAS := len(rt.asns)
	recorded := make(map[int32]bool)
	last, cells := int32(-1), 0
	for i := range p.parts {
		pt := &p.parts[i]
		if len(pt.cols) == 0 {
			return 0, fmt.Errorf("part %d records no column", i)
		}
		if len(pt.log) != cap(pt.log) || len(pt.cols) != cap(pt.cols) {
			return 0, fmt.Errorf("part %d: log len %d cap %d, records len %d cap %d; want exact-size",
				i, len(pt.log), cap(pt.log), len(pt.cols), cap(pt.cols))
		}
		if end := int(pt.cols[len(pt.cols)-1].end); end != len(pt.log) {
			return 0, fmt.Errorf("part %d: records end at cell %d of a %d-cell log", i, end, len(pt.log))
		}
		for k, pc := range pt.cols {
			if pc.p <= last {
				return 0, fmt.Errorf("part %d: column %d recorded after column %d", i, pc.p, last)
			}
			last = pc.p
			log := pt.cells(k)
			if len(log) == 0 {
				return 0, fmt.Errorf("part %d: column %d recorded, but it wrote no cell", i, pc.p)
			}
			if int(pc.clothed) > len(log) {
				return 0, fmt.Errorf("column %d: %d clothing writes of %d cells", pc.p, pc.clothed, len(log))
			}
			cells += len(log) - int(pc.clothed)
			recorded[pc.p] = true
		}
	}
	if got := p.Cells(); got != cells {
		return 0, fmt.Errorf("Cells() = %d, the logs hold %d cells besides clothing", got, cells)
	}
	for pi := range lens {
		moved := len(rt.slabs[pi]) != lens[pi] ||
			!slices.Equal(rt.entries[pi*nAS:(pi+1)*nAS], before[pi*nAS:(pi+1)*nAS])
		if moved && !recorded[int32(pi)] {
			return 0, fmt.Errorf("column %d moved but is not recorded", pi)
		}
	}
	return len(recorded), nil
}
