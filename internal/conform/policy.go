// Package conform implements the implicit structural type conformance
// rules of Pragmatic Type Interoperability (ICDCS 2003, Section 4.2,
// Figure 2). A type T implicitly structurally conforms to a type T'
// (written T ≤is T') iff T conforms to T' on every aspect — name,
// fields, supertypes, methods and constructors — or T and T' are
// equivalent (same identity) or T explicitly conforms to T'
// (subtyping). The checker works purely on TypeDescriptions, never on
// implementations, matching the paper's goal of comparing types
// "without having to transfer the implementation of them"
// (Section 5).
package conform

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"pti/internal/levenshtein"
)

// Policy tunes the name-conformance aspect. The paper's rule as
// written requires a Levenshtein distance of zero on case-folded
// names, but explicitly leaves room for generalization ("in order to
// be more general, wildcards could be allowed"). The zero value is
// the paper's strict rule.
type Policy struct {
	// TypeNameDistance is the maximum Levenshtein distance between
	// type names (rule (i)).
	TypeNameDistance int
	// MemberNameDistance is the maximum Levenshtein distance between
	// member (field, method, constructor) names.
	MemberNameDistance int
	// CaseSensitive disables the paper's case folding.
	CaseSensitive bool
	// Wildcards enables '*' and '?' in *expected* names (the paper's
	// suggested generalization).
	Wildcards bool
	// TokenSubset accepts member names whose camel-case token
	// sequence is an ordered subsequence of the other's: setName
	// conforms to setPersonName, the paper's motivating example
	// (Section 3.1).
	TokenSubset bool
	// NoPermutations disables the argument-permutation search of
	// rule (iv); only the declared parameter order is considered.
	NoPermutations bool
	// IgnoreConstructors skips aspect (v). The paper's rule includes
	// constructors; receivers that only consume objects (never
	// construct them) can relax this, trading strictness for match
	// rate — an ablation measured by the benchmark harness.
	IgnoreConstructors bool
	// BestMatch resolves ambiguous member correspondences by name
	// distance (closest wins) instead of declaration order. The
	// paper leaves the choice "up to the programmer" (Section 4.2);
	// declaration order is the deterministic default, BestMatch the
	// heuristic alternative, and Overrides the explicit one.
	BestMatch bool
	// MaxDepth bounds structural recursion. Zero means the default
	// (32).
	MaxDepth int
}

// Strict returns the paper's Figure 2 rule exactly as written:
// case-insensitive name equality, permutations allowed.
func Strict() Policy { return Policy{} }

// Relaxed returns a policy accepting type names within distance k and
// member names related by the token-subset rule (or within distance
// k), which makes the paper's own Person example conformant.
func Relaxed(k int) Policy {
	return Policy{
		TypeNameDistance:   k,
		MemberNameDistance: k,
		TokenSubset:        true,
	}
}

const defaultMaxDepth = 32

func (p Policy) maxDepth() int {
	if p.MaxDepth > 0 {
		return p.MaxDepth
	}
	return defaultMaxDepth
}

// typeNameConforms applies rule (i) to type names. The token-subset
// generalization applies here too: BankAccount represents the same
// module as Account the way setPersonName represents setName.
func (p Policy) typeNameConforms(expected, candidate string) bool {
	if p.nameConforms(expected, candidate, p.TypeNameDistance) {
		return true
	}
	return p.TokenSubset && tokenSubset(expected, candidate)
}

// memberNameConforms applies the name rule to member names.
func (p Policy) memberNameConforms(expected, candidate string) bool {
	if p.nameConforms(expected, candidate, p.MemberNameDistance) {
		return true
	}
	if p.TokenSubset && tokenSubset(expected, candidate) {
		return true
	}
	return false
}

func (p Policy) nameConforms(expected, candidate string, maxDist int) bool {
	if p.Wildcards && strings.ContainsAny(expected, "*?") {
		if p.CaseSensitive {
			return levenshtein.MatchWildcard(expected, candidate)
		}
		return levenshtein.MatchWildcardFold(expected, candidate)
	}
	if p.CaseSensitive {
		return levenshtein.WithinDistance(expected, candidate, maxDist)
	}
	return levenshtein.WithinDistanceFold(expected, candidate, maxDist)
}

// exactNameEqual is the non-negotiable comparison used for primitive
// type names: fuzzy-matching int against uint would be unsound.
func (p Policy) exactNameEqual(a, b string) bool {
	if p.CaseSensitive {
		return a == b
	}
	return strings.EqualFold(a, b)
}

// fingerprint renders the policy for cache keys.
func (p Policy) fingerprint() string {
	return fmt.Sprintf("t%d|m%d|c%t|w%t|s%t|p%t|i%t|b%t|d%d",
		p.TypeNameDistance, p.MemberNameDistance, p.CaseSensitive,
		p.Wildcards, p.TokenSubset, p.NoPermutations, p.IgnoreConstructors,
		p.BestMatch, p.maxDepth())
}

// tokenSubset reports whether the camel-case token sequence of the
// shorter name is an ordered subsequence of the longer one's:
// setName ⊑ setPersonName, GetSymbol ⊑ GetStockSymbol. Tokens are
// found and compared, lowercased, where they stand in the names.
func tokenSubset(a, b string) bool {
	na, nb := countTokens(a), countTokens(b)
	if na == 0 || nb == 0 {
		return na == nb
	}
	if na > nb {
		a, b = b, a
	}
	as, ae := nextToken(a, 0)
	for bs, be := nextToken(b, 0); bs < be; bs, be = nextToken(b, be) {
		if as < ae && tokenEqual(a[as:ae], b[bs:be]) {
			as, ae = nextToken(a, ae)
		}
	}
	return as == ae
}

func countTokens(s string) int {
	n := 0
	for start, end := nextToken(s, 0); start < end; start, end = nextToken(s, end) {
		n++
	}
	return n
}

// nextToken returns the byte bounds [start, end) of the first
// camel-case token of s at or after pos, or start == end when none is
// left. '_' and '-' separate tokens; an upper-case rune starts one
// after a non-upper rune, and ends an all-caps run (ID, XML) when a
// lower-case rune follows it: parseXMLDoc is parse, XML, Doc.
func nextToken(s string, pos int) (start, end int) {
	for pos < len(s) && (s[pos] == '_' || s[pos] == '-') {
		pos++
	}
	if pos == len(s) {
		return pos, pos
	}
	start = pos
	prev, w := utf8.DecodeRuneInString(s[pos:])
	for pos += w; pos < len(s); pos += w {
		var r rune
		r, w = utf8.DecodeRuneInString(s[pos:])
		if r == '_' || r == '-' {
			break
		}
		if unicode.IsUpper(r) {
			if !unicode.IsUpper(prev) {
				break
			}
			if next, _ := utf8.DecodeRuneInString(s[pos+w:]); unicode.IsLower(next) {
				break
			}
		}
		prev = r
	}
	return start, pos
}

// tokenEqual compares two tokens rune by rune after unicode.ToLower.
func tokenEqual(x, y string) bool {
	for x != "" && y != "" {
		rx, wx := utf8.DecodeRuneInString(x)
		ry, wy := utf8.DecodeRuneInString(y)
		if rx != ry && unicode.ToLower(rx) != unicode.ToLower(ry) {
			return false
		}
		x, y = x[wx:], y[wy:]
	}
	return x == y
}
