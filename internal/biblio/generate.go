package biblio

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/rng"
	"repro/internal/stats"
)

// GenConfig parameterizes the synthetic corpus generator.
type GenConfig struct {
	Papers  int
	Authors int
	// Affiliations is the number of institutions; institution sizes follow
	// a Zipf law (a few giants employ many authors).
	Affiliations int
	// SouthFrac is the fraction of authors from the Global South.
	SouthFrac float64
	// PrefAttachment is the weight of past productivity when picking paper
	// authors (0 = uniform; 1 = classic rich-get-richer).
	PrefAttachment float64
	// Venues maps venue name to its method-probability profile.
	Venues map[string]VenueProfile
	// YearSpan spreads papers uniformly over [FirstYear, FirstYear+YearSpan).
	FirstYear, YearSpan int
	Seed                uint64
}

// VenueProfile is a venue's method distribution, in Methods() order
// (measurement, systems, theory, qualitative, mixed).
type VenueProfile struct {
	Weight      float64 // relative paper volume
	MethodProbs [5]float64
}

// DefaultGenConfig returns the corpus used by experiment E5 (which
// registers a smaller size): systems, measurement and theory venues
// dominated by quantitative work, and one HCI-adjacent venue where
// qualitative work lives — the publication landscape the paper describes.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Papers:         5000,
		Authors:        2500,
		Affiliations:   220,
		SouthFrac:      0.12,
		PrefAttachment: 0.85,
		Venues: map[string]VenueProfile{
			"SYSCONF":   {Weight: 0.35, MethodProbs: [5]float64{0.20, 0.62, 0.12, 0.02, 0.04}},
			"NETMEAS":   {Weight: 0.30, MethodProbs: [5]float64{0.70, 0.14, 0.08, 0.03, 0.05}},
			"NETTHEORY": {Weight: 0.15, MethodProbs: [5]float64{0.10, 0.10, 0.75, 0.01, 0.04}},
			"HCICONF":   {Weight: 0.20, MethodProbs: [5]float64{0.08, 0.10, 0.04, 0.55, 0.23}},
		},
		FirstYear: 2015,
		YearSpan:  10,
		Seed:      1,
	}
}

// abstractPools holds each method's abstract vocabulary; Mixed draws from
// the qualitative and measurement words together.
var abstractPools = [Mixed + 1][]string{
	Measurement:     methodVocabulary[Measurement],
	SystemsBuilding: methodVocabulary[SystemsBuilding],
	Theory:          methodVocabulary[Theory],
	Qualitative:     methodVocabulary[Qualitative],
	Mixed:           slices.Concat(methodVocabulary[Qualitative], methodVocabulary[Measurement]),
}

// abstractFiller is the method-neutral vocabulary of generated abstracts.
var abstractFiller = []string{"internet", "network", "system", "results", "approach", "present", "paper", "study"}

// abstractWords is the length of a generated abstract in words.
const abstractWords = 30

// abstractFor generates a method-flavoured abstract so ClassifyAbstract can
// recover the latent label.
func abstractFor(m Method, r *rng.Rand) string {
	pool := abstractPools[m]
	var words [abstractWords]string
	for i := range words {
		if r.Bool(0.4) {
			words[i] = pool[r.Intn(len(pool))]
		} else {
			words[i] = abstractFiller[r.Intn(len(abstractFiller))]
		}
	}
	return strings.Join(words[:], " ")
}

// fenwick is a binary indexed tree over non-negative integer weights. Its
// sample returns exactly the index rng.Categorical returns for the same
// weights and stream, in O(log n) instead of a linear scan: one Float64 per
// draw scaled by the total, prefix sums that are integers and so exact in
// float64, and the same clamp to the last index.
type fenwick struct {
	tree  []int // tree[i] sums the weights (i-lowbit(i), i], 1-based
	total int
	top   int // largest power of two <= len(tree)-1
}

// newFenwick returns a tree over n zero weights.
func newFenwick(n int) *fenwick {
	f := &fenwick{tree: make([]int, n+1), top: 1}
	for f.top*2 <= n {
		f.top *= 2
	}
	return f
}

// add increases weight i by delta.
func (f *fenwick) add(i, delta int) {
	f.total += delta
	for i++; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// sample draws an index with probability proportional to its weight.
func (f *fenwick) sample(r *rng.Rand) int {
	return f.find(r.Float64() * float64(f.total))
}

// find returns the first index whose prefix sum through it exceeds x, or
// the last index when none does.
func (f *fenwick) find(x float64) int {
	// Descend to the longest prefix whose sum is still <= x; the index
	// after it is the answer.
	pos, acc := 0, 0
	for step := f.top; step > 0; step /= 2 {
		if next := pos + step; next < len(f.tree) && float64(acc+f.tree[next]) <= x {
			pos, acc = next, acc+f.tree[next]
		}
	}
	return min(pos, len(f.tree)-2)
}

// maxPaperAuthors is the most distinct authors a generated paper draws.
const maxPaperAuthors = 5

// Generate builds a synthetic corpus per cfg.
func Generate(cfg GenConfig) (*Corpus, error) {
	if cfg.Papers <= 0 || cfg.Authors <= 0 || cfg.Affiliations <= 0 || len(cfg.Venues) == 0 {
		return nil, fmt.Errorf("biblio: generator config incomplete")
	}
	if cfg.Authors < maxPaperAuthors {
		return nil, fmt.Errorf("biblio: generator needs at least %d authors (a paper draws up to %d distinct), got %d",
			maxPaperAuthors, maxPaperAuthors, cfg.Authors)
	}
	r := rng.New(cfg.Seed)
	c := &Corpus{authors: make(map[int]Author, cfg.Authors), papers: make(map[int]Paper, cfg.Papers)}

	// Institutions follow a Zipf size law.
	affZipf := rng.NewZipf(cfg.Affiliations, 1.1)
	for i := 0; i < cfg.Authors; i++ {
		region := "north"
		if r.Bool(cfg.SouthFrac) {
			region = "south"
		}
		aff := fmt.Sprintf("inst-%03d", affZipf.Sample(r))
		if err := c.AddAuthor(Author{
			ID:          i,
			Name:        fmt.Sprintf("Author %d", i),
			Affiliation: aff,
			Region:      region,
		}); err != nil {
			return nil, err
		}
	}

	// Venue sampling weights and deterministic order.
	venueNames := make([]string, 0, len(cfg.Venues))
	for v := range cfg.Venues {
		venueNames = append(venueNames, v)
	}
	sort.Strings(venueNames)
	venueWeights := make([]float64, len(venueNames))
	for i, v := range venueNames {
		venueWeights[i] = cfg.Venues[v].Weight
	}

	// Past productivity, smoothed by one so newcomers can be picked.
	productivity := newFenwick(cfg.Authors)
	for a := range cfg.Authors {
		productivity.add(a, 1)
	}

	for pid := 0; pid < cfg.Papers; pid++ {
		venue := venueNames[r.Categorical(venueWeights)]
		profile := cfg.Venues[venue]
		method := Method(r.Categorical(profile.MethodProbs[:]))

		nAuthors := 2 + r.Intn(maxPaperAuthors-1)
		authors := make([]int, 0, nAuthors)
		for len(authors) < nAuthors {
			var a int
			if r.Bool(cfg.PrefAttachment) {
				a = productivity.sample(r)
			} else {
				a = r.Intn(cfg.Authors)
			}
			if !slices.Contains(authors, a) {
				authors = append(authors, a)
			}
		}
		for _, a := range authors {
			productivity.add(a, 1)
		}
		if err := c.AddPaper(Paper{
			ID:       pid,
			Title:    fmt.Sprintf("Paper %d", pid),
			Year:     cfg.FirstYear + r.Intn(max(cfg.YearSpan, 1)),
			Venue:    venue,
			Authors:  authors,
			Abstract: abstractFor(method, r),
			Method:   method,
		}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// E5Row is one venue's concentration profile (plus an all-corpus row with
// Venue "ALL").
type E5Row struct {
	Venue            string
	Papers           int
	QualitativeShare float64 // qualitative + mixed share, stored labels
	ClassifiedQual   float64 // same via the abstract classifier
	AffiliationGini  float64
	Top10AffilShare  float64
	SouthAuthorShare float64
}

// RunE5 generates a corpus and computes the concentration rows per venue
// and for the whole corpus. The paper's claims: publication volume
// concentrates in few institutions (high Gini, high top-10 share), the
// Global South is under-represented, and qualitative methods are nearly
// absent from the core networking venues while alive at HCI venues.
func RunE5(cfg GenConfig) ([]E5Row, error) {
	c, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	return e5Rows(c, classifyCorpus(c)), nil
}

// classifyCorpus labels every abstract of a generated corpus, indexed by
// paper ID (Generate numbers papers 0..Papers-1): the tooling path a real
// corpus, which has no labels, would use. One memo serves the whole corpus.
func classifyCorpus(c *Corpus) []Method {
	cl := classifier{memo: make(map[string][Mixed]int)}
	labels := make([]Method, c.NumPapers())
	for id := range labels {
		labels[id] = cl.classify(c.papers[id].Abstract)
	}
	return labels
}

// e5Rows computes the ALL row and one row per venue in a single pass over
// a generated corpus, counting both its stored and its classified labels.
func e5Rows(c *Corpus, classified []Method) []E5Row {
	// Generate numbers authors 0..Authors-1; index their affiliations
	// densely in that order.
	type e5Author struct {
		aff   int
		south bool
	}
	authors := make([]e5Author, c.NumAuthors())
	affIndex := make(map[string]int)
	for id := range authors {
		a := c.authors[id]
		aff, ok := affIndex[a.Affiliation]
		if !ok {
			aff = len(affIndex)
			affIndex[a.Affiliation] = aff
		}
		authors[id] = e5Author{aff: aff, south: a.Region == "south"}
	}

	// One accumulator per row: ALL, then each venue in sorted order. Every
	// count is an integer, so the order papers arrive in cannot move a bit.
	type e5Acc struct {
		papers         int
		labels         [Mixed + 1]int // stored method labels
		classified     [Mixed + 1]int // labels from the abstract classifier
		papersPerAff   []float64      // papers with at least one author there
		authors, south float64        // author slots, and those from the South
	}
	venues := c.Venues()
	accs := make([]e5Acc, 1+len(venues))
	venueRow := make(map[string]int, len(venues))
	for i := range accs {
		accs[i].papersPerAff = make([]float64, len(affIndex))
		if i > 0 {
			venueRow[venues[i-1]] = i
		}
	}
	var paperAffs []int
	for id, label := range classified {
		p := c.papers[id]
		paperAffs = paperAffs[:0]
		for _, aid := range p.Authors {
			if aff := authors[aid].aff; !slices.Contains(paperAffs, aff) {
				paperAffs = append(paperAffs, aff)
			}
		}
		for _, row := range [2]int{0, venueRow[p.Venue]} {
			acc := &accs[row]
			acc.papers++
			acc.labels[p.Method]++
			acc.classified[label]++
			for _, aff := range paperAffs {
				acc.papersPerAff[aff]++
			}
			for _, aid := range p.Authors {
				acc.authors++
				if authors[aid].south {
					acc.south++
				}
			}
		}
	}

	rows := make([]E5Row, len(accs))
	for i, acc := range accs {
		row := E5Row{Venue: "ALL", Papers: acc.papers}
		if i > 0 {
			row.Venue = venues[i-1]
		}
		if acc.papers > 0 {
			n := float64(acc.papers)
			row.QualitativeShare = float64(acc.labels[Qualitative])/n + float64(acc.labels[Mixed])/n
			row.ClassifiedQual = float64(acc.classified[Qualitative])/n + float64(acc.classified[Mixed])/n
		}
		// Collect the affiliations present then sort: Gini/TopKShare re-sort
		// internally, but order-dependent input would leave order-dependence
		// one refactor away.
		vals := make([]float64, 0, len(acc.papersPerAff))
		for _, cnt := range acc.papersPerAff {
			if cnt > 0 {
				vals = append(vals, cnt)
			}
		}
		sort.Float64s(vals)
		row.AffiliationGini = stats.Gini(vals)
		row.Top10AffilShare = stats.TopKShare(vals, 10)
		if acc.authors > 0 {
			row.SouthAuthorShare = acc.south / acc.authors
		}
		rows[i] = row
	}
	return rows
}
