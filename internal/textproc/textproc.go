// Package textproc provides the lightweight text-processing primitives used
// by the qualitative-coding engine (internal/qualcode) and the corpus method
// classifier (internal/biblio): tokenization, stopword filtering, a small
// suffix-stripping stemmer, n-grams, TF-IDF vectors, and cosine similarity.
//
// The goal is not linguistic fidelity but deterministic, dependency-free
// feature extraction adequate for classifying method vocabulary ("interview",
// "ethnograph...", "measurement", "benchmark") and for clustering coded
// segments by theme.
package textproc

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// defaultStopwords is the small English stopword list applied by Tokenize
// when filtering is requested.
var defaultStopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "from": true,
	"has": true, "have": true, "he": true, "her": true, "his": true,
	"in": true, "is": true, "it": true, "its": true, "not": true,
	"of": true, "on": true, "or": true, "our": true, "she": true,
	"that": true, "the": true, "their": true, "them": true, "they": true,
	"this": true, "to": true, "was": true, "we": true, "were": true,
	"which": true, "who": true, "will": true, "with": true, "you": true,
	"i": true, "my": true, "me": true, "so": true, "do": true, "did": true,
	"what": true, "when": true, "how": true, "if": true, "then": true,
}

// Tokenize splits text into lowercase word tokens, dropping punctuation.
// Tokens of length < 2 are discarded.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() >= 2 {
			tokens = append(tokens, b.String())
		}
		b.Reset()
	}
	for _, r := range strings.ToLower(text) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' {
			if r != '\'' {
				b.WriteRune(r)
			}
			continue
		}
		flush()
	}
	flush()
	return tokens
}

// TokenizeFiltered tokenizes and removes stopwords.
func TokenizeFiltered(text string) []string {
	raw := Tokenize(text)
	out := raw[:0]
	for _, t := range raw {
		if !defaultStopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Stem applies a small suffix-stripping stemmer (a Porter-lite) sufficient to
// conflate the method vocabulary used by the classifier: plurals, -ing, -ed,
// -tion/-sion, -ies, -ness, -ment. Words of length <= 3 are returned as-is.
func Stem(w string) string {
	if len(w) <= 3 {
		return w
	}
	type rule struct{ suffix, replace string }
	rules := []rule{
		{"izations", "ize"},
		{"ization", "ize"},
		{"ational", "ate"},
		{"fulness", "ful"},
		{"ousness", "ous"},
		{"iveness", "ive"},
		{"tional", "tion"},
		{"biliti", "ble"},
		{"graphies", "graphy"},
		{"ements", "ement"},
		{"ingly", ""},
		{"ments", "ment"},
		{"ness", ""},
		{"ations", "ate"},
		{"ation", "ate"},
		{"ities", "ity"},
		{"ies", "y"},
		{"ing", ""},
		{"edly", ""},
		{"eds", ""},
		{"ed", ""},
		{"ly", ""},
		{"es", ""},
		{"s", ""},
	}
	for _, r := range rules {
		if strings.HasSuffix(w, r.suffix) {
			stem := w[:len(w)-len(r.suffix)] + r.replace
			if len(stem) >= 3 {
				return stem
			}
		}
	}
	return w
}

// StemAll maps Stem over tokens.
func StemAll(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = Stem(t)
	}
	return out
}

// TermFreq returns the term-frequency map of tokens.
func TermFreq(tokens []string) map[string]float64 {
	tf := make(map[string]float64, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	return tf
}

// Corpus accumulates documents and computes TF-IDF vectors against the
// accumulated document frequencies. The zero value is ready to use.
type Corpus struct {
	docs []map[string]float64 // term frequency per doc
	df   map[string]int       // document frequency per term
}

// Add tokenizes, filters, and stems text, appends it as a document, and
// returns its index.
func (c *Corpus) Add(text string) int {
	tokens := StemAll(TokenizeFiltered(text))
	tf := TermFreq(tokens)
	if c.df == nil {
		c.df = make(map[string]int)
	}
	for term := range tf {
		c.df[term]++
	}
	c.docs = append(c.docs, tf)
	return len(c.docs) - 1
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return len(c.docs) }

// TFIDF returns the TF-IDF vector of document i (smoothed IDF:
// log((1+N)/(1+df)) + 1). Returns nil for out-of-range i.
func (c *Corpus) TFIDF(i int) map[string]float64 {
	if i < 0 || i >= len(c.docs) {
		return nil
	}
	n := float64(len(c.docs))
	vec := make(map[string]float64, len(c.docs[i]))
	for term, tf := range c.docs[i] {
		idf := math.Log((1+n)/(1+float64(c.df[term]))) + 1
		vec[term] = tf * idf
	}
	return vec
}

// Cosine returns the cosine similarity of two sparse vectors (0 when either
// is empty or zero).
func Cosine(a, b map[string]float64) float64 {
	// Accumulate in sorted term order: float addition is not associative,
	// so summing in map order would change the similarity's low bits
	// run-to-run.
	var dot, na, nb float64
	for _, k := range sortedTerms(a) {
		va := a[k]
		na += va * va
		if vb, ok := b[k]; ok {
			dot += va * vb
		}
	}
	for _, k := range sortedTerms(b) {
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// sortedTerms returns the keys of a sparse vector in sorted order.
func sortedTerms(v map[string]float64) []string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
