package bgpsim

import (
	"fmt"
	"testing"

	"repro/internal/proptest"
)

// engineEquivalent compares the incrementally patched engine against a fresh
// compile of the same topology, keyed by name/ASN (prefix column order may
// legitimately differ after announces).
func engineEquivalent(e *engine, t *Topology) error {
	f, err := t.compile()
	if err != nil {
		return err
	}
	if len(e.rt.asns) != len(f.rt.asns) {
		return fmt.Errorf("asns: %d vs %d", len(e.rt.asns), len(f.rt.asns))
	}
	for i := range e.rt.asns {
		if e.rt.asns[i] != f.rt.asns[i] {
			return fmt.Errorf("asns[%d]: %d vs %d", i, e.rt.asns[i], f.rt.asns[i])
		}
		if len(e.nbr[i]) != len(f.nbr[i]) {
			return fmt.Errorf("AS %d: %d edges vs %d", e.rt.asns[i], len(e.nbr[i]), len(f.nbr[i]))
		}
		for j := range e.nbr[i] {
			if e.nbr[i][j] != f.nbr[i][j] {
				return fmt.Errorf("AS %d edge %d: %+v vs %+v", e.rt.asns[i], j, e.nbr[i][j], f.nbr[i][j])
			}
		}
		if e.leaky[i] != f.leaky[i] {
			return fmt.Errorf("AS %d leaky: %v vs %v", e.rt.asns[i], e.leaky[i], f.leaky[i])
		}
		if e.leaf[i] != f.leaf[i] {
			return fmt.Errorf("AS %d leaf: %v vs %v", e.rt.asns[i], e.leaf[i], f.leaf[i])
		}
	}
	if e.nLeaky != f.nLeaky {
		return fmt.Errorf("nLeaky: %d vs %d", e.nLeaky, f.nLeaky)
	}
	if e.c2pAcyclic != f.c2pAcyclic {
		return fmt.Errorf("c2pAcyclic: %v vs %v", e.c2pAcyclic, f.c2pAcyclic)
	}
	// Per-prefix origins, keyed by prefix name.
	fIdx := f.rt.pfxIdx
	for p, pi := range e.rt.pfxIdx {
		fpi, ok := fIdx[p]
		if !ok {
			if len(e.origins[pi]) == 0 {
				continue // fully withdrawn prefix keeps an empty column
			}
			return fmt.Errorf("prefix %s with origins missing from fresh compile", p)
		}
		a, b := e.origins[pi], f.origins[fpi]
		if len(a) != len(b) {
			return fmt.Errorf("prefix %s origins: %v vs %v", p, a, b)
		}
		for k := range a {
			if a[k] != b[k] {
				return fmt.Errorf("prefix %s origins: %v vs %v", p, a, b)
			}
		}
	}
	return nil
}

// TestPropEngineStructuralEquivalence: after every Apply and Revert the
// patched engine equals a fresh compile. Some steps close a provider cycle
// (an AS becomes the provider of its own provider) and open it again, so
// the acyclicity flag Apply keeps without a whole-graph pass, and Revert
// restores, is checked both ways.
func TestPropEngineStructuralEquivalence(t *testing.T) {
	cycles := 0
	proptest.Run(t, 311, 60, func(g *proptest.G) error {
		spec := g.ASHierarchy(5, 6)
		topo, _, mids, stubs, err := buildSpecTopology(spec)
		if err != nil {
			return err
		}
		c := convergeState(t, topo, 1)
		var stack []*Patch
		extra := 0
		steps := g.IntRange(3, 8)
		for s := 0; s < steps; s++ {
			if len(stack) > 0 && g.Bool(0.25) {
				c.Revert(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			} else if g.Bool(0.25) {
				var n ASN
				if k := g.Intn(len(mids) + len(stubs)); k < len(mids) {
					n = mids[k]
				} else {
					n = stubs[k-len(mids)]
				}
				provs := c.Topology().Providers(n)
				if len(provs) == 0 || c.Topology().HasProviderCustomer(n, provs[0]) {
					continue
				}
				up := Delta{Kind: DeltaLinkUp, A: n, B: provs[0]}
				for _, d := range []Delta{up, up.inverse()} {
					p, err := c.Apply(d)
					if err != nil {
						return fmt.Errorf("step %d: Apply(%+v): %v", s, d, err)
					}
					stack = append(stack, p)
					if d == up && !c.e.c2pAcyclic {
						cycles++
					}
					if err := engineEquivalent(c.e, c.Topology()); err != nil {
						return fmt.Errorf("step %d: after %+v: engine drifted: %w", s, d, err)
					}
				}
			} else {
				d, ok := randomDelta(g, c, mids, stubs, &extra)
				if !ok {
					continue
				}
				p, err := c.Apply(d)
				if err != nil {
					return fmt.Errorf("step %d: Apply(%+v): %v", s, d, err)
				}
				stack = append(stack, p)
			}
			if err := engineEquivalent(c.e, c.Topology()); err != nil {
				return fmt.Errorf("step %d: engine drifted: %w", s, err)
			}
		}
		return nil
	})
	if cycles == 0 {
		t.Error("no draw closed a provider cycle")
	}
}
