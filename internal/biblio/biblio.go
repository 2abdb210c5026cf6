// Package biblio implements the bibliometric substrate behind the paper's
// "who is in the room" observations (§1, §6.3): a publication corpus model,
// a synthetic corpus generator with preferential attachment and regional
// skew, coauthorship-graph analysis, a keyword method classifier, and the
// concentration metrics (Gini, top-k share, regional share, method mix per
// venue) that experiment E5 reports.
package biblio

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/textproc"
)

// Method classifies a paper's primary research method.
type Method int

// Method categories. Qualitative covers the paper's PAR/ethnography/
// positionality toolbox; Mixed combines qualitative with quantitative work.
const (
	Measurement Method = iota
	SystemsBuilding
	Theory
	Qualitative
	Mixed
)

// Methods lists every method category.
func Methods() []Method {
	return []Method{Measurement, SystemsBuilding, Theory, Qualitative, Mixed}
}

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Measurement:
		return "measurement"
	case SystemsBuilding:
		return "systems"
	case Theory:
		return "theory"
	case Qualitative:
		return "qualitative"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Author is one researcher in the corpus.
type Author struct {
	ID          int
	Name        string
	Affiliation string
	Region      string // "north" or "south" in the generator
}

// Paper is one publication.
type Paper struct {
	ID       int
	Title    string
	Year     int
	Venue    string
	Authors  []int
	Abstract string
	Method   Method
}

// Corpus is a mutable set of authors and papers with referential integrity.
type Corpus struct {
	authors map[int]Author
	papers  map[int]Paper
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{authors: make(map[int]Author), papers: make(map[int]Paper)}
}

// Errors returned by corpus mutation.
var (
	ErrUnknownAuthor = errors.New("biblio: unknown author")
	ErrDuplicateID   = errors.New("biblio: duplicate ID")
)

// AddAuthor registers an author.
func (c *Corpus) AddAuthor(a Author) error {
	if _, ok := c.authors[a.ID]; ok {
		return fmt.Errorf("%w: author %d", ErrDuplicateID, a.ID)
	}
	c.authors[a.ID] = a
	return nil
}

// AddPaper registers a paper; all authors must exist and be distinct.
func (c *Corpus) AddPaper(p Paper) error {
	if _, ok := c.papers[p.ID]; ok {
		return fmt.Errorf("%w: paper %d", ErrDuplicateID, p.ID)
	}
	if len(p.Authors) == 0 {
		return fmt.Errorf("biblio: paper %d needs authors", p.ID)
	}
	for i, a := range p.Authors {
		if _, ok := c.authors[a]; !ok {
			return fmt.Errorf("%w: %d on paper %d", ErrUnknownAuthor, a, p.ID)
		}
		if slices.Contains(p.Authors[:i], a) {
			return fmt.Errorf("biblio: duplicate author %d on paper %d", a, p.ID)
		}
	}
	c.papers[p.ID] = p
	return nil
}

// Author returns an author by ID.
func (c *Corpus) Author(id int) (Author, bool) {
	a, ok := c.authors[id]
	return a, ok
}

// Paper returns a paper by ID.
func (c *Corpus) Paper(id int) (Paper, bool) {
	p, ok := c.papers[id]
	return p, ok
}

// NumAuthors returns the author count.
func (c *Corpus) NumAuthors() int { return len(c.authors) }

// NumPapers returns the paper count.
func (c *Corpus) NumPapers() int { return len(c.papers) }

// PaperIDs returns sorted paper IDs.
func (c *Corpus) PaperIDs() []int {
	out := make([]int, 0, len(c.papers))
	for id := range c.papers {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// AuthorIDs returns sorted author IDs.
func (c *Corpus) AuthorIDs() []int {
	out := make([]int, 0, len(c.authors))
	for id := range c.authors {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Venues returns the distinct venue names sorted.
func (c *Corpus) Venues() []string {
	set := make(map[string]bool)
	for _, p := range c.papers {
		set[p.Venue] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// CoauthorGraph builds the undirected coauthorship graph: node per author
// (dense indices in AuthorIDs order), edge weight = number of joint papers.
// It returns the graph and the author ID order used for node indices.
func (c *Corpus) CoauthorGraph() (*graph.Graph, []int) {
	ids := c.AuthorIDs()
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	weights := make(map[[2]int]float64)
	for _, p := range c.papers {
		for i := 0; i < len(p.Authors); i++ {
			for j := i + 1; j < len(p.Authors); j++ {
				a, b := idx[p.Authors[i]], idx[p.Authors[j]]
				if a > b {
					a, b = b, a
				}
				weights[[2]int{a, b}]++
			}
		}
	}
	// Add edges in (a, b) order: adjacency order fixes BFS order, and with
	// it the float accumulation order of the centralities.
	pairs := make([][2]int, 0, len(weights))
	for pair := range weights {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	g := graph.New(len(ids), false)
	for _, pair := range pairs {
		_ = g.AddEdge(pair[0], pair[1], weights[pair])
	}
	return g, ids
}

// MethodMix returns the per-method share of papers at a venue (by the
// stored Method labels). Empty venue means the whole corpus.
func (c *Corpus) MethodMix(venue string) map[Method]float64 {
	counts := make(map[Method]float64)
	total := 0.0
	for _, p := range c.papers {
		if venue != "" && p.Venue != venue {
			continue
		}
		counts[p.Method]++
		total++
	}
	if total == 0 {
		return counts
	}
	for m := range counts {
		counts[m] /= total
	}
	return counts
}

// methodVocabulary feeds the keyword classifier and the generator's
// abstracts, indexed by Method (the four vocabulary methods precede Mixed).
var methodVocabulary = [Mixed][]string{
	Measurement:     {"measurement", "traceroute", "vantage", "dataset", "longitudinal", "probing", "scan", "telemetry"},
	SystemsBuilding: {"implementation", "deployment", "prototype", "throughput", "kernel", "design", "evaluation", "testbed"},
	Theory:          {"theorem", "proof", "bound", "optimal", "complexity", "model", "equilibrium", "convergence"},
	Qualitative:     {"interview", "ethnography", "participatory", "fieldwork", "positionality", "community", "qualitative", "stakeholder"},
}

// classifierIndex maps each stemmed vocabulary word to its hits per method:
// a stem listed twice under one method counts twice.
var classifierIndex = func() map[string][Mixed]int {
	idx := make(map[string][Mixed]int)
	for m, words := range methodVocabulary {
		for _, w := range words {
			stem := textproc.Stem(w)
			hits := idx[stem]
			hits[m]++
			idx[stem] = hits
		}
	}
	return idx
}()

// classifier scores abstracts against classifierIndex. A non-nil memo
// caches each token's hits, so a corpus drawn from a small vocabulary stems
// every distinct token once.
type classifier struct {
	memo map[string][Mixed]int
}

// hits returns the per-method vocabulary hits of one unstemmed token.
func (c classifier) hits(tok string) [Mixed]int {
	if h, ok := c.memo[tok]; ok {
		return h
	}
	h := classifierIndex[textproc.Stem(tok)]
	if c.memo != nil {
		c.memo[tok] = h
	}
	return h
}

// classify is ClassifyAbstract through c's memo.
func (c classifier) classify(abstract string) Method {
	var scores [Mixed]int
	for _, tok := range textproc.TokenizeFiltered(abstract) {
		h := c.hits(tok)
		for m := range scores {
			scores[m] += h[m]
		}
	}
	best, bestScore := Measurement, 0
	for m, score := range scores {
		if score > bestScore {
			best, bestScore = Method(m), score
		}
	}
	if bestScore == 0 {
		return Measurement
	}
	// Mixed methods: clear signal (>= 2 hits) on both the qualitative and
	// the quantitative side.
	quant := scores[Measurement] + scores[SystemsBuilding] + scores[Theory]
	if scores[Qualitative] >= 2 && quant >= 2 {
		return Mixed
	}
	return best
}

// ClassifyAbstract assigns the method whose vocabulary best matches the
// abstract (stemmed-token overlap). Abstracts matching both qualitative and
// a quantitative vocabulary strongly are labelled Mixed; no match defaults
// to Measurement (the field's modal method).
func ClassifyAbstract(abstract string) Method {
	return classifier{}.classify(abstract)
}
