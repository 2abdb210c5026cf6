package textproc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/proptest"
)

func TestTokenizeBasics(t *testing.T) {
	got := Tokenize("Hello, World! It's a BGP-based test.")
	want := []string{"hello", "world", "its", "bgp", "based", "test"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeDropsShort(t *testing.T) {
	got := Tokenize("a b c ab")
	if len(got) != 1 || got[0] != "ab" {
		t.Errorf("tokens = %v, want [ab]", got)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("tokens of empty = %v", got)
	}
}

func TestTokenizeFiltered(t *testing.T) {
	got := TokenizeFiltered("the network is the computer")
	want := []string{"network", "computer"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("filtered = %v, want %v", got, want)
	}
}

func TestStemConflatesMethodVocabulary(t *testing.T) {
	cases := [][2]string{
		{"interviews", "interview"},
		{"interviewing", "interview"},
		{"interviewed", "interview"},
		{"measurements", "measurement"},
		{"ethnographies", "ethnography"},
		{"communities", "community"},
		{"peering", "peer"},
		{"networks", "network"},
	}
	for _, c := range cases {
		if got := Stem(c[0]); got != c[1] {
			t.Errorf("Stem(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestStemShortWordsUnchanged(t *testing.T) {
	for _, w := range []string{"as", "bgp", "ix"} {
		if Stem(w) != w {
			t.Errorf("Stem(%q) changed short word", w)
		}
	}
}

func TestStemIdempotentOnCommonForms(t *testing.T) {
	words := []string{"interviews", "measurements", "peering", "coding", "networks"}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		// Stemming twice may further strip, but must never grow or panic.
		if len(twice) > len(once) {
			t.Errorf("Stem grew: %q -> %q -> %q", w, once, twice)
		}
	}
}

func TestTermFreq(t *testing.T) {
	tf := TermFreq([]string{"x", "y", "x"})
	if tf["x"] != 2 || tf["y"] != 1 {
		t.Errorf("tf = %v", tf)
	}
}

func TestTFIDFDistinguishesRareTerms(t *testing.T) {
	var c Corpus
	c.Add("measurement measurement latency")
	c.Add("measurement throughput")
	c.Add("ethnography fieldwork interview")
	v0 := c.TFIDF(0)
	// "measurement" appears in 2/3 docs; "latency" in 1/3. After stemming,
	// per-occurrence weight of latency must exceed measurement's.
	lat := v0[Stem("latency")]
	meas := v0[Stem("measurement")] / 2 // tf was 2
	if lat <= meas {
		t.Errorf("rare term weight %g should exceed common term per-occurrence weight %g", lat, meas)
	}
}

func TestTFIDFOutOfRange(t *testing.T) {
	var c Corpus
	if c.TFIDF(0) != nil {
		t.Error("TFIDF on empty corpus should be nil")
	}
}

func TestCosineIdenticalAndOrthogonal(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 2}
	if got := Cosine(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("self cosine = %g, want 1", got)
	}
	b := map[string]float64{"z": 3}
	if got := Cosine(a, b); got != 0 {
		t.Errorf("orthogonal cosine = %g, want 0", got)
	}
	if got := Cosine(a, nil); got != 0 {
		t.Errorf("nil cosine = %g, want 0", got)
	}
}

func TestCorpusSimilarityGrouping(t *testing.T) {
	var c Corpus
	i0 := c.Add("we conducted interviews with network operators and coded the transcripts")
	i1 := c.Add("interview transcripts were coded by two researchers for themes")
	i2 := c.Add("we measured packet loss and latency across vantage points with traceroute")
	simQual := Cosine(c.TFIDF(i0), c.TFIDF(i1))
	simCross := Cosine(c.TFIDF(i0), c.TFIDF(i2))
	if simQual <= simCross {
		t.Errorf("qualitative docs similarity %g should exceed cross-method %g", simQual, simCross)
	}
}

// propText draws a string for the tokenizer properties: runes from the
// whole code-point range, from a mix of ASCII letters, digits, separators
// and apostrophes, from letters with non-trivial case folding, and now and
// then a byte that is not valid UTF-8.
func propText(g *proptest.G) string {
	const pool = "aZ9 ,.'-_\t\nİıẞßΣσςÉé日"
	poolRunes := []rune(pool)
	var b strings.Builder
	for i, n := 0, g.IntRange(0, 50); i < n; i++ {
		switch g.Intn(4) {
		case 0:
			b.WriteRune(rune(g.Intn(0x10ffff)))
		case 1:
			b.WriteByte(byte(0x80 + g.Intn(0x80)))
		default:
			b.WriteRune(poolRunes[g.Intn(len(poolRunes))])
		}
	}
	return b.String()
}

func TestQuickTokenizeLowercase(t *testing.T) {
	proptest.Run(t, 301, 200, func(g *proptest.G) error {
		s := propText(g)
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) || len(tok) < 2 {
				return fmt.Errorf("Tokenize(%q) yields %q", s, tok)
			}
		}
		return nil
	})
}

func TestQuickCosineBounds(t *testing.T) {
	proptest.Run(t, 302, 200, func(g *proptest.G) error {
		av := g.IntsIn(0, 50, 0, 255)
		bv := g.IntsIn(0, 50, 0, 255)
		a := make(map[string]float64)
		b := make(map[string]float64)
		for i, v := range av {
			a[strings.Repeat("a", i%5+1)] += float64(v)
		}
		for i, v := range bv {
			b[strings.Repeat("a", i%7+1)] += float64(v)
		}
		if c := Cosine(a, b); c < -1e-9 || c > 1+1e-9 {
			return fmt.Errorf("Cosine(%v, %v) = %g out of [0, 1]", av, bv, c)
		}
		return nil
	})
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("Networking research often abstracts away the people who build, operate, and experience the Internet. ", 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Tokenize(text)
	}
}

func BenchmarkTFIDF(b *testing.B) {
	var c Corpus
	for i := 0; i < 100; i++ {
		c.Add("participatory action research ethnographic methods positionality networking measurement " + strings.Repeat("community network ", i%7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.TFIDF(i % c.Len())
	}
}
