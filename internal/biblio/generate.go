package biblio

import (
	"fmt"
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

// DefaultGenConfig returns the corpus used by experiment E5: two systems
// venues dominated by quantitative work, one measurement venue, and one
// HCI-adjacent venue where qualitative work lives — the publication
// landscape the paper describes.
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

// abstractVocab generates method-flavoured abstracts so ClassifyAbstract can
// recover the latent labels.
func abstractFor(m Method, r *rng.Rand) string {
	vocab := methodVocabulary()
	var pool []string
	switch m {
	case Mixed:
		pool = append(append([]string{}, vocab[Qualitative]...), vocab[Measurement]...)
	default:
		pool = vocab[m]
	}
	filler := []string{"internet", "network", "system", "results", "approach", "present", "paper", "study"}
	words := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		if r.Bool(0.4) {
			words = append(words, pool[r.Intn(len(pool))])
		} else {
			words = append(words, filler[r.Intn(len(filler))])
		}
	}
	return strings.Join(words, " ")
}

// Generate builds a synthetic corpus per cfg.
func Generate(cfg GenConfig) (*Corpus, error) {
	if cfg.Papers <= 0 || cfg.Authors <= 0 || cfg.Affiliations <= 0 || len(cfg.Venues) == 0 {
		return nil, fmt.Errorf("biblio: generator config incomplete")
	}
	r := rng.New(cfg.Seed)
	c := NewCorpus()

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

	productivity := make([]float64, cfg.Authors)
	for i := range productivity {
		productivity[i] = 1 // smoothing so newcomers can be picked
	}

	for pid := 0; pid < cfg.Papers; pid++ {
		venue := venueNames[r.Categorical(venueWeights)]
		profile := cfg.Venues[venue]
		method := Method(r.Categorical(profile.MethodProbs[:]))

		nAuthors := 2 + r.Intn(4)
		chosen := make(map[int]bool, nAuthors)
		authors := make([]int, 0, nAuthors)
		for len(authors) < nAuthors {
			var a int
			if r.Bool(cfg.PrefAttachment) {
				a = r.Categorical(productivity)
			} else {
				a = r.Intn(cfg.Authors)
			}
			if chosen[a] {
				continue
			}
			chosen[a] = true
			authors = append(authors, a)
		}
		for _, a := range authors {
			productivity[a]++
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
	// Classify each abstract once, the tooling path a real corpus (no
	// labels) would use; every row counts the labels of its papers.
	ids := c.PaperIDs()
	classified := make([]Method, len(ids))
	for i, id := range ids {
		p, _ := c.Paper(id)
		classified[i] = ClassifyAbstract(p.Abstract)
	}
	venues := append([]string{"ALL"}, c.Venues()...)
	rows := make([]E5Row, 0, len(venues))
	for _, v := range venues {
		filter := v
		if v == "ALL" {
			filter = ""
		}
		row := E5Row{Venue: v}
		mix := c.MethodMix(filter)
		row.QualitativeShare = mix[Qualitative] + mix[Mixed]

		// Per-venue classified method mix, affiliation concentration and
		// southern representation.
		var classifiedCounts [Mixed + 1]float64
		affCounts := make(map[string]float64)
		var total, south float64
		for i, id := range ids {
			p, _ := c.Paper(id)
			if filter != "" && p.Venue != filter {
				continue
			}
			row.Papers++
			classifiedCounts[classified[i]]++
			seen := make(map[string]bool)
			for _, aid := range p.Authors {
				a, _ := c.Author(aid)
				if !seen[a.Affiliation] {
					affCounts[a.Affiliation]++
					seen[a.Affiliation] = true
				}
				total++
				if a.Region == "south" {
					south++
				}
			}
		}
		// Collect counts then sort: Gini/TopKShare re-sort internally, but
		// handing them map-ordered input would leave order-dependence one
		// refactor away.
		vals := make([]float64, 0, len(affCounts))
		for _, cnt := range affCounts {
			vals = append(vals, cnt)
		}
		sort.Float64s(vals)
		if row.Papers > 0 {
			n := float64(row.Papers)
			row.ClassifiedQual = classifiedCounts[Qualitative]/n + classifiedCounts[Mixed]/n
		}
		row.AffiliationGini = stats.Gini(vals)
		row.Top10AffilShare = stats.TopKShare(vals, 10)
		if total > 0 {
			row.SouthAuthorShare = south / total
		}
		rows = append(rows, row)
	}
	return rows, nil
}
