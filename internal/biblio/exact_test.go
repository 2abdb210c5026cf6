package biblio

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// e5Shapes are the corpus shapes the exactness fingerprint covers: E5's
// registered default, two smaller corpora, and the smallest author
// population Generate accepts.
var e5Shapes = []struct{ papers, authors, affiliations int }{
	{2000, 1200, 220},
	{300, 200, 220},
	{1000, 500, 40},
	{200, 5, 3},
}

// e5ShapeConfig returns the generator config for one shape and seed. Every
// third seed moves the non-size knobs off their defaults.
func e5ShapeConfig(shape int, seed uint64) GenConfig {
	s := e5Shapes[shape]
	cfg := DefaultGenConfig()
	cfg.Papers, cfg.Authors, cfg.Affiliations = s.papers, s.authors, s.affiliations
	cfg.Seed = seed
	if seed%3 == 0 {
		cfg.PrefAttachment = 0.3 + 0.2*float64(shape)
		cfg.SouthFrac = 0.4
		cfg.Affiliations = 17 + shape
	}
	return cfg
}

// fingerprintE5 writes every byte E5 and the generator produce for cfg:
// the RunE5 rows (floats by bit pattern), every author, every paper, and
// each paper's ClassifyAbstract label.
func fingerprintE5(t testing.TB, h hash.Hash, cfg GenConfig) {
	t.Helper()
	rows, err := RunE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(h, "row %s %d %x %x %x %x %x\n", r.Venue, r.Papers,
			math.Float64bits(r.QualitativeShare), math.Float64bits(r.ClassifiedQual),
			math.Float64bits(r.AffiliationGini), math.Float64bits(r.Top10AffilShare),
			math.Float64bits(r.SouthAuthorShare))
	}
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range c.AuthorIDs() {
		a, _ := c.Author(id)
		fmt.Fprintf(h, "author %d %q %q %q\n", a.ID, a.Name, a.Affiliation, a.Region)
	}
	for _, id := range c.PaperIDs() {
		p, _ := c.Paper(id)
		fmt.Fprintf(h, "paper %d %q %d %q %v %q %d %d\n", p.ID, p.Title, p.Year, p.Venue,
			p.Authors, p.Abstract, p.Method, ClassifyAbstract(p.Abstract))
	}
}

// TestE5Fingerprint pins E5's rows, the generated corpus and the classifier
// labels over four shapes and seeds 1..12 by one SHA-256. The hash was
// recorded before the generator, tokenizer and classifier were optimised;
// it must never be edited to absorb a change.
func TestE5Fingerprint(t *testing.T) {
	const want = "3cd91fad411d7fa00d11d1be938f5828dbea9032ce085a77f1d812eab526ff40"
	h := sha256.New()
	for shape := range e5Shapes {
		for seed := uint64(1); seed <= 12; seed++ {
			fingerprintE5(t, h, e5ShapeConfig(shape, seed))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("E5 fingerprint = %s, want %s", got, want)
	}
}
