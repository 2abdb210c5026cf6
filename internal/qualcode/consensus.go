package qualcode

import (
	"fmt"
	"sort"
)

// BuildConsensus adds a synthetic coder whose annotations are the majority
// vote of the existing coders on every segment: the "negotiated agreement"
// step of a formal coding process, where the team meets to resolve
// disagreements. A code is adopted when at least minVotes coders applied
// it; ties and near-misses are resolved deterministically (lexicographically
// smallest qualifying code wins when a segment would otherwise end up
// empty but had annotations). The consensus coder's name must be unused.
func (p *Project) BuildConsensus(name string, minVotes int) error {
	if name == "" {
		return fmt.Errorf("qualcode: consensus coder needs a name")
	}
	for _, c := range p.Coders() {
		if c == name {
			return fmt.Errorf("qualcode: coder %q already exists", name)
		}
	}
	if minVotes < 1 {
		minVotes = 1
	}
	coders := p.Coders()
	if len(coders) == 0 {
		return fmt.Errorf("qualcode: no coders to build consensus from")
	}
	for _, u := range p.units() {
		votes := make(map[string]int)
		for _, c := range coders {
			for _, code := range p.CodesFor(u.doc, u.seg, c) {
				votes[code]++
			}
		}
		if len(votes) == 0 {
			continue
		}
		var adopted []string
		for code, n := range votes {
			if n >= minVotes {
				adopted = append(adopted, code)
			}
		}
		if len(adopted) == 0 {
			// The team discusses and settles on the most-supported code;
			// deterministic tie-break by code ID.
			type cv struct {
				code string
				n    int
			}
			var all []cv
			for code, n := range votes {
				all = append(all, cv{code, n})
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].n != all[j].n {
					return all[i].n > all[j].n
				}
				return all[i].code < all[j].code
			})
			adopted = []string{all[0].code}
		}
		sort.Strings(adopted)
		for _, code := range adopted {
			if err := p.Annotate(Annotation{
				DocID: u.doc, SegmentID: u.seg, CodeID: code, Coder: name,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
