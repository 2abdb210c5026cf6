// Package ixp models Internet exchange points on top of the AS-level BGP
// simulator: membership, peering policies, policy-driven session
// establishment, peering regulation (and its circumvention via shell ASNs),
// and traffic-locality analysis.
//
// It reproduces the two ethnographic case studies in the paper's §3:
//
//   - Telmex/Mexico: a law can force an incumbent to "peer at the IXP", but
//     the incumbent can comply with the letter of the law by joining through
//     an ASN that carries none of its customer routes. Valley-free export
//     then guarantees the peering sessions are useless — the simulator
//     reproduces the regulation's failure mechanically.
//
//   - Brazil/Germany: ISPs choose where traffic is exchanged based on where
//     content is present. When hyperscaler PoPs are absent from local IXPs,
//     traffic gravitates to giant foreign IXPs (DE-CIX), which become
//     "alternatives to Tier 1".
package ixp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bgpsim"
)

// PeeringPolicy is an IXP member's willingness to peer.
type PeeringPolicy int

// Peering policies, from most to least permissive.
const (
	// Open peers with any member.
	Open PeeringPolicy = iota
	// Selective peers only with members in its allowlist.
	Selective
	// Restrictive refuses all peering unless compelled by regulation.
	Restrictive
)

// String returns the policy name.
func (p PeeringPolicy) String() string {
	switch p {
	case Open:
		return "open"
	case Selective:
		return "selective"
	case Restrictive:
		return "restrictive"
	default:
		return fmt.Sprintf("PeeringPolicy(%d)", int(p))
	}
}

// member is an AS's presence at one IXP.
type member struct {
	policy PeeringPolicy
	allow  map[bgpsim.ASN]bool
}

// IXP is one exchange point: a set of members with policies.
type IXP struct {
	Name    string
	Country string
	// Priority orders session establishment when a pair of ASes is present
	// at several exchanges: lower values establish first and win the
	// session attribution. ISPs prefer their local, lower-latency exchange,
	// so local IXPs should get lower values than distant giants.
	Priority int
	members  map[bgpsim.ASN]*member
}

// Members returns the member ASNs in ascending order.
func (x *IXP) Members() []bgpsim.ASN {
	out := make([]bgpsim.ASN, 0, len(x.members))
	for n := range x.members {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasMember reports whether n is a member.
func (x *IXP) HasMember(n bgpsim.ASN) bool { _, ok := x.members[n]; return ok }

// Regulation configures mandatory peering at the IXPs of one country, as in
// the Mexican case study: every pair of members at a regulated IXP must
// establish a session, overriding restrictive policies.
type Regulation struct {
	// Country whose IXPs are regulated; empty disables regulation.
	Country string
	// MandatoryPeering forces all-pairs sessions at regulated IXPs.
	MandatoryPeering bool
}

// applies reports whether the regulation covers IXP x.
func (r Regulation) applies(x *IXP) bool {
	return r.MandatoryPeering && r.Country != "" && x.Country == r.Country
}

// Fabric combines a BGP topology with a set of IXPs and tracks which peering
// sessions were created at which exchange, so traffic can be attributed to
// exchanges after convergence.
type Fabric struct {
	Topo *bgpsim.Topology
	ixps map[string]*IXP
	// sessionIXP maps an (a,b) peer edge (a<b) to the IXP name it was
	// established at. Bilateral (non-IXP) sessions are absent.
	sessionIXP map[[2]bgpsim.ASN]string
}

// NewFabric returns a fabric over the given topology.
func NewFabric(topo *bgpsim.Topology) *Fabric {
	return &Fabric{
		Topo:       topo,
		ixps:       make(map[string]*IXP),
		sessionIXP: make(map[[2]bgpsim.ASN]string),
	}
}

// Errors returned by fabric operations.
var (
	ErrUnknownIXP   = errors.New("ixp: unknown IXP")
	ErrDuplicateIXP = errors.New("ixp: duplicate IXP")
)

// AddIXP registers an exchange point.
func (f *Fabric) AddIXP(name, country string) (*IXP, error) {
	if _, ok := f.ixps[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateIXP, name)
	}
	x := &IXP{Name: name, Country: country, members: make(map[bgpsim.ASN]*member)}
	f.ixps[name] = x
	return x, nil
}

// IXP returns a registered exchange by name.
func (f *Fabric) IXP(name string) (*IXP, bool) {
	x, ok := f.ixps[name]
	return x, ok
}

// IXPNames returns the registered IXP names in sorted order.
func (f *Fabric) IXPNames() []string {
	out := make([]string, 0, len(f.ixps))
	for n := range f.ixps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Join adds AS n to the named IXP with the given policy. allow lists the
// ASNs a Selective member will peer with (ignored for other policies).
func (f *Fabric) Join(ixpName string, n bgpsim.ASN, policy PeeringPolicy, allow ...bgpsim.ASN) error {
	x, ok := f.ixps[ixpName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownIXP, ixpName)
	}
	if _, ok := f.Topo.Info(n); !ok {
		return fmt.Errorf("ixp: AS %d not in topology", n)
	}
	m := &member{policy: policy}
	if policy == Selective {
		m.allow = make(map[bgpsim.ASN]bool, len(allow))
		for _, a := range allow {
			m.allow[a] = true
		}
	}
	x.members[n] = m
	return nil
}

// Leave removes AS n from the named IXP (sessions already established are
// not retracted; call EstablishSessions again after mutating membership).
func (f *Fabric) Leave(ixpName string, n bgpsim.ASN) {
	if x, ok := f.ixps[ixpName]; ok {
		delete(x.members, n)
	}
}

// Sessions returns the number of IXP-attributed peering sessions currently
// recorded in the fabric (bilateral non-IXP peerings are not counted).
func (f *Fabric) Sessions() int { return len(f.sessionIXP) }

// RetractMemberSessions removes every session established at the named IXP
// that involves AS n: the peer edges leave the topology and the attribution
// map, and the count of retracted sessions is returned. Pair it with Leave
// to model a member actually departing the exchange — Leave alone only stops
// future establishment, which models lapsed membership with grandfathered
// sessions.
func (f *Fabric) RetractMemberSessions(ixpName string, n bgpsim.ASN) int {
	keys := make([][2]bgpsim.ASN, 0, 4)
	for k, name := range f.sessionIXP {
		if name == ixpName && (k[0] == n || k[1] == n) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		f.Topo.RemovePeer(k[0], k[1])
		delete(f.sessionIXP, k)
	}
	return len(keys)
}

// wouldPeer reports whether member m agrees to peer with other.
func (m *member) wouldPeer(other bgpsim.ASN) bool {
	switch m.policy {
	case Open:
		return true
	case Selective:
		return m.allow[other]
	default:
		return false
	}
}

// EstablishSessions walks every IXP and creates peer edges in the topology
// for each member pair that agrees to peer (both policies accept), or that
// the regulation compels. It records which IXP each session belongs to and
// returns the number of sessions created. Existing peerings are left alone.
func (f *Fabric) EstablishSessions(reg Regulation) int {
	created := 0
	names := f.IXPNames()
	sort.SliceStable(names, func(i, j int) bool {
		return f.ixps[names[i]].Priority < f.ixps[names[j]].Priority
	})
	for _, name := range names {
		x := f.ixps[name]
		forced := reg.applies(x)
		ms := x.Members()
		for i := 0; i < len(ms); i++ {
			for j := i + 1; j < len(ms); j++ {
				a, b := ms[i], ms[j]
				agree := x.members[a].wouldPeer(b) && x.members[b].wouldPeer(a)
				if !agree && !forced {
					continue
				}
				if f.Topo.HasPeer(a, b) {
					continue
				}
				if err := f.Topo.AddPeer(a, b); err != nil {
					continue
				}
				f.sessionIXP[sessionKey(a, b)] = name
				created++
			}
		}
	}
	return created
}

// EstablishMemberSessionsVia establishes exactly the sessions a full
// EstablishSessions(reg) run would create for pairs involving member n —
// same priority order, same attribution, same silent skip of pairs the
// topology refuses — but routes each topology mutation through add instead
// of Topo.AddPeer, so an incremental engine (timeline.IXPMachine) can apply
// the new peer edges as deltas against live converged state. add receives
// the pair in ascending-ASN order and a non-nil return skips the pair
// without recording it, mirroring the cold path. Returns sessions created.
//
// Equivalence with the cold path rests on the establishment invariant: every
// pair not involving n that agrees to peer already has its session (the
// fabric re-establishes after every membership change), so a full run could
// only add pairs involving n — the pairs this walks.
func (f *Fabric) EstablishMemberSessionsVia(n bgpsim.ASN, reg Regulation, add func(a, b bgpsim.ASN) error) int {
	created := 0
	names := f.IXPNames()
	sort.SliceStable(names, func(i, j int) bool {
		return f.ixps[names[i]].Priority < f.ixps[names[j]].Priority
	})
	for _, name := range names {
		x := f.ixps[name]
		if !x.HasMember(n) {
			continue
		}
		forced := reg.applies(x)
		for _, m := range x.Members() {
			if m == n {
				continue
			}
			agree := x.members[n].wouldPeer(m) && x.members[m].wouldPeer(n)
			if !agree && !forced {
				continue
			}
			if f.Topo.HasPeer(n, m) {
				continue
			}
			k := sessionKey(n, m)
			if err := add(k[0], k[1]); err != nil {
				continue
			}
			f.sessionIXP[k] = name
			created++
		}
	}
	return created
}

// RetractMemberSessionsVia is RetractMemberSessions with the topology
// mutation routed through remove instead of Topo.RemovePeer, for the same
// incremental callers. remove receives the pair in ascending-ASN order;
// unlike establishment (where a refused pair is a policy outcome), a failed
// removal means the attribution map and the topology disagree, so it aborts
// with the error. Returns the number of sessions retracted.
func (f *Fabric) RetractMemberSessionsVia(ixpName string, n bgpsim.ASN, remove func(a, b bgpsim.ASN) error) (int, error) {
	keys := make([][2]bgpsim.ASN, 0, 4)
	for k, name := range f.sessionIXP {
		if name == ixpName && (k[0] == n || k[1] == n) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for i, k := range keys {
		if err := remove(k[0], k[1]); err != nil {
			return i, fmt.Errorf("ixp: retract %s session (%d,%d): %w", ixpName, k[0], k[1], err)
		}
		delete(f.sessionIXP, k)
	}
	return len(keys), nil
}

func sessionKey(a, b bgpsim.ASN) [2]bgpsim.ASN {
	if a > b {
		a, b = b, a
	}
	return [2]bgpsim.ASN{a, b}
}

// SessionIXP returns the IXP at which the (a,b) peering was established, or
// "" for bilateral/non-IXP sessions.
func (f *Fabric) SessionIXP(a, b bgpsim.ASN) string {
	return f.sessionIXP[sessionKey(a, b)]
}

// Demand is one directed traffic demand from a source AS to the AS
// originating the destination prefix.
type Demand struct {
	Src    bgpsim.ASN
	Prefix string
	Volume float64
}

// PathReport classifies one demand's converged path.
type PathReport struct {
	Demand   Demand
	Path     []bgpsim.ASN
	Reach    bool
	Domestic bool     // every hop inside the source country
	IXPs     []string // IXPs whose sessions the path traverses, in order
}

// ClassifyPath resolves the path for d and classifies it against country
// (usually the source AS's country).
func (f *Fabric) ClassifyPath(rt *bgpsim.RoutingTables, d Demand, country string) PathReport {
	rep := PathReport{Demand: d}
	path := rt.Path(d.Src, d.Prefix)
	if path == nil {
		return rep
	}
	rep.Reach = true
	rep.Path = path
	rep.Domestic = true
	for _, hop := range path {
		info, ok := f.Topo.Info(hop)
		if !ok || info.Country != country {
			rep.Domestic = false
			break
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if name := f.SessionIXP(path[i], path[i+1]); name != "" {
			rep.IXPs = append(rep.IXPs, name)
		}
	}
	return rep
}

// LocalityResult aggregates traffic-weighted locality over a demand set.
type LocalityResult struct {
	TotalVolume      float64
	ReachableVolume  float64
	DomesticVolume   float64
	VolumeByIXP      map[string]float64
	UnreachableCount int
}

// Locality returns the share of reachable volume whose path stayed inside
// country, plus per-IXP volume attribution. Demands whose source AS is not
// in country are skipped.
func (f *Fabric) Locality(rt *bgpsim.RoutingTables, demands []Demand, country string) LocalityResult {
	res := LocalityResult{VolumeByIXP: make(map[string]float64)}
	for _, d := range demands {
		info, ok := f.Topo.Info(d.Src)
		if !ok || info.Country != country {
			continue
		}
		res.TotalVolume += d.Volume
		rep := f.ClassifyPath(rt, d, country)
		if !rep.Reach {
			res.UnreachableCount++
			continue
		}
		res.ReachableVolume += d.Volume
		if rep.Domestic {
			res.DomesticVolume += d.Volume
		}
		for _, name := range rep.IXPs {
			res.VolumeByIXP[name] += d.Volume
		}
	}
	return res
}

// DomesticShare returns DomesticVolume/ReachableVolume (0 when no volume).
func (r LocalityResult) DomesticShare() float64 {
	if r.ReachableVolume == 0 {
		return 0
	}
	return r.DomesticVolume / r.ReachableVolume
}
