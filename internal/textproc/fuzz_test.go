package textproc

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// tokenizeOracle is the tokenizer Tokenize replaced: one rune at a time
// through a strings.Builder. Tokenize must return exactly its tokens.
func tokenizeOracle(text string) []string {
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

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "BGP-based peering at IXPs!",
		"données réseau 日本語 text", "a b c", strings.Repeat("x", 10000),
		"it's a test's tests", "\x00\xff broken \xf0 utf8",
		"İSTANBUL STRAẞE ΣΟΦΊΑ'Σ \xc3 o' ''x 'İ' \xed\xa0\x80ab",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tokens := Tokenize(s)
		if want := tokenizeOracle(s); !slices.Equal(tokens, want) {
			t.Fatalf("Tokenize(%q) = %q, oracle %q", s, tokens, want)
		}
		for _, tok := range tokens {
			if len(tok) < 2 {
				t.Fatalf("token %q shorter than 2", tok)
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lowercase", tok)
			}
			if !utf8.ValidString(tok) {
				t.Fatalf("token %q invalid UTF-8", tok)
			}
		}
		// Stemming must never panic or grow unreasonably.
		for _, tok := range tokens {
			stem := Stem(tok)
			if len(stem) > len(tok) {
				t.Fatalf("Stem grew %q -> %q", tok, stem)
			}
		}
	})
}

func FuzzStem(f *testing.F) {
	for _, seed := range []string{"", "a", "running", "ethnographies", "ミーティング", "xxxxs"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := Stem(s)
		if len(s) <= 3 && out != s {
			t.Fatalf("short word changed: %q -> %q", s, out)
		}
	})
}
