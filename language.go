package partree

import (
	"context"
	"math/big"

	"partree/internal/grammar"
	"partree/internal/lincfl"
)

// LinearGrammar is a linear context-free grammar in the normal form of
// Section 8 (every rule A → bB, A → Cb or A → a).
type LinearGrammar = grammar.Linear

// GrammarRule is an un-normalized linear rule A → Pre B Suf; leave B empty
// (with an empty Suf) for a terminal rule A → Pre, and leave Pre and Suf
// empty for a unit rule A → B.
type GrammarRule = grammar.RawRule

// NewLinearGrammar normalizes raw linear rules into the Section 8 normal
// form, introducing auxiliary nonterminals and eliminating unit rules.
func NewLinearGrammar(rules []GrammarRule, start string) (*LinearGrammar, error) {
	return grammar.Normalize(rules, start)
}

// PalindromeGrammar returns the stock grammar for odd palindromes over
// {a,b} with centre marker c.
func PalindromeGrammar() *LinearGrammar { return grammar.Palindrome() }

// RecognizeLinear reports whether w ∈ L(G) with the quadratic sequential
// dynamic program over the induced graph IG(G,w).
func RecognizeLinear(g *LinearGrammar, w []byte) bool {
	return lincfl.Sequential(g, w)
}

// LinearRecognitionResult is the output of RecognizeLinearParallel.
type LinearRecognitionResult struct {
	Accepted bool
	// Products is the number of Boolean matrix products performed and
	// WordOps the 64-bit word operations across them — the M(n) work that
	// Theorem 8.1's processor bound is parameterized by.
	Products int
	WordOps  int64
	// Depth is the number of levels of the divide-and-conquer region
	// table, one parallel statement each (O(log n)).
	Depth int
	Stats Stats
}

// RecognizeLinearParallel reports whether w ∈ L(G) with the paper's
// separator divide-and-conquer over the induced triangular grid, combining
// boundary-reachability matrices by Boolean matrix multiplication
// (Theorem 8.1).
func RecognizeLinearParallel(g *LinearGrammar, w []byte, opts ...Options) *LinearRecognitionResult {
	res, _ := RecognizeLinearParallelContext(context.Background(), g, w, opts...)
	return res
}

// DerivationStep is one rule application in a linear derivation.
type DerivationStep = lincfl.Step

// DeriveLinear returns a derivation (the linear grammar's "parse tree",
// which is a chain) of w from the start symbol, or ok=false if w ∉ L(G).
func DeriveLinear(g *LinearGrammar, w []byte) ([]DerivationStep, bool) {
	return lincfl.Derive(g, w)
}

// DeriveLinearParallel extracts a derivation using the separator
// divide-and-conquer itself (Theorem 8.1's "and generate a parse tree"):
// the recognition pass caches each region's boundary reachability and the
// extraction walks the accepting path across the separators.
func DeriveLinearParallel(g *LinearGrammar, w []byte, opts ...Options) ([]DerivationStep, bool) {
	steps, ok, _ := DeriveLinearParallelContext(context.Background(), g, w, opts...)
	return steps, ok
}

// FormatDerivation renders a derivation as successive sentential forms.
func FormatDerivation(g *LinearGrammar, w []byte, steps []DerivationStep) string {
	return lincfl.FormatDerivation(g, w, steps)
}

// SubstringMembership reports membership of every substring w[i..j]
// (inclusive) in L(G) in one quadratic pass over the induced graph.
func SubstringMembership(g *LinearGrammar, w []byte) [][]bool {
	return lincfl.MembershipTable(g, w)
}

// CountDerivations returns the exact number of distinct derivations of w
// (as a big integer, since linear grammars can be exponentially
// ambiguous); zero means w ∉ L(G).
func CountDerivations(g *LinearGrammar, w []byte) *big.Int {
	return lincfl.CountDerivations(g, w)
}
