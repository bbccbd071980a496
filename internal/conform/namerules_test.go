package conform

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"pti/internal/levenshtein"
)

// The reference name rules: the token-subset and distance rules as
// they read before tokens were compared in place, built from token
// strings and strings.ToLower. FuzzNameRules checks the production
// rules against them.

// splitCamel splits a camelCase / PascalCase / snake_case identifier
// into lowercase tokens.
func splitCamel(s string) []string {
	var (
		tokens []string
		cur    strings.Builder
	)
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case r == '_' || r == '-':
			flush()
		case unicode.IsUpper(r):
			// Start of a new token, unless we are inside an
			// all-caps run (e.g. "ID", "XML") that has not ended.
			if i > 0 && !unicode.IsUpper(runes[i-1]) {
				flush()
			} else if i > 0 && i+1 < len(runes) && unicode.IsUpper(runes[i-1]) && unicode.IsLower(runes[i+1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return tokens
}

func refTokenSubset(a, b string) bool {
	ta, tb := splitCamel(a), splitCamel(b)
	if len(ta) == 0 || len(tb) == 0 {
		return len(ta) == len(tb)
	}
	if len(ta) > len(tb) {
		ta, tb = tb, ta
	}
	i := 0
	for _, tok := range tb {
		if i < len(ta) && ta[i] == tok {
			i++
		}
	}
	return i == len(ta)
}

func refNameConforms(p Policy, expected, candidate string, maxDist int) bool {
	if !p.CaseSensitive {
		expected = strings.ToLower(expected)
		candidate = strings.ToLower(candidate)
	}
	if p.Wildcards && strings.ContainsAny(expected, "*?") {
		return levenshtein.MatchWildcard(expected, candidate)
	}
	return levenshtein.WithinDistance(expected, candidate, maxDist)
}

func refTypeNameConforms(p Policy, expected, candidate string) bool {
	return refNameConforms(p, expected, candidate, p.TypeNameDistance) ||
		(p.TokenSubset && refTokenSubset(expected, candidate))
}

func refMemberNameConforms(p Policy, expected, candidate string) bool {
	return refNameConforms(p, expected, candidate, p.MemberNameDistance) ||
		(p.TokenSubset && refTokenSubset(expected, candidate))
}

// nameRulePolicies is every combination of the flags the name rules
// read, at distances 0 to 2.
func nameRulePolicies() []Policy {
	var out []Policy
	for k := 0; k <= 2; k++ {
		for flags := 0; flags < 8; flags++ {
			out = append(out, Policy{
				TypeNameDistance:   k,
				MemberNameDistance: k,
				CaseSensitive:      flags&1 != 0,
				Wildcards:          flags&2 != 0,
				TokenSubset:        flags&4 != 0,
			})
		}
	}
	return out
}

// checkNameRules reports the first disagreement between the
// production name rules and the reference ones on one pair.
func checkNameRules(t *testing.T, expected, candidate string) {
	t.Helper()
	if got, want := tokenSubset(expected, candidate), refTokenSubset(expected, candidate); got != want {
		t.Fatalf("tokenSubset(%q, %q) = %v, reference %v", expected, candidate, got, want)
	}
	if got, want := levenshtein.DistanceFold(expected, candidate),
		levenshtein.Distance(strings.ToLower(expected), strings.ToLower(candidate)); got != want {
		t.Fatalf("DistanceFold(%q, %q) = %d, reference %d", expected, candidate, got, want)
	}
	for _, p := range nameRulePolicies() {
		if got, want := p.typeNameConforms(expected, candidate), refTypeNameConforms(p, expected, candidate); got != want {
			t.Fatalf("%+v: typeNameConforms(%q, %q) = %v, reference %v", p, expected, candidate, got, want)
		}
		if got, want := p.memberNameConforms(expected, candidate), refMemberNameConforms(p, expected, candidate); got != want {
			t.Fatalf("%+v: memberNameConforms(%q, %q) = %v, reference %v", p, expected, candidate, got, want)
		}
	}
}

// FuzzNameRules checks that the in-place name rules agree with the
// reference ones for every policy flag combination. The seed corpus
// (testdata/fuzz/FuzzNameRules) holds Unicode case pairs, separators,
// digits, all-caps runs and names over 64 runes.
func FuzzNameRules(f *testing.F) {
	for _, pair := range [][2]string{
		{"setName", "setPersonName"},
		{"parseXMLDoc", "parse_xml_doc"},
		{"HTTPServer", "httpServer"},
		{"getID", "GetId"},
		{"*name*", "setPersonName"},
		{"get?ame", "GETNAME"},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, expected, candidate string) {
		checkNameRules(t, expected, candidate)
	})
}

// TestNameRulesMatchReference runs the fuzz target's check over names
// drawn from camel-case pieces, separators, digits and letters whose
// case mappings are special (İ, ß, ẞ, ſ, the Kelvin sign), including
// names over 64 runes.
func TestNameRulesMatchReference(t *testing.T) {
	pieces := []string{"get", "Get", "GET", "name", "Name", "ID", "Id", "XML", "Doc",
		"_", "-", "__", "7", "2", "İ", "ı", "ß", "ẞ", "ſ", "S", "s", "K", "k", "\u212a", "Σ", "σ", "ς", "é", "É",
		"*", "?", "\xff"}
	r := rand.New(rand.NewSource(5))
	name := func() string {
		var b strings.Builder
		n := r.Intn(6)
		if r.Intn(20) == 0 {
			n = 30 + r.Intn(20) // past the 64-rune stack buffers
		}
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	for i := 0; i < 3000; i++ {
		a := name()
		b := a
		if r.Intn(3) > 0 {
			b = name()
		}
		checkNameRules(t, a, b)
	}
}

// TestNameRulesZeroAlloc pins the cold check's name aspect: member and
// type name rules allocate nothing for ASCII names of up to 64 runes
// without wildcards.
func TestNameRulesZeroAlloc(t *testing.T) {
	long := strings.Repeat("Ab", 32) // 64 runes, 32 tokens
	pairs := [][2]string{
		{"setName", "setPersonName"},
		{"GetStockSymbol", "get_stock_symbol"},
		{"parseXMLDoc", "ParseXmlDocument"},
		{long, long[:63] + "c"},
	}
	for _, p := range nameRulePolicies() {
		p.Wildcards = false
		for _, pair := range pairs {
			allocs := testing.AllocsPerRun(20, func() {
				p.memberNameConforms(pair[0], pair[1])
				p.typeNameConforms(pair[0], pair[1])
				levenshtein.DistanceFold(pair[0], pair[1])
			})
			if allocs != 0 {
				t.Errorf("%+v: name rules on %q, %q allocate %.0f, want 0", p, pair[0], pair[1], allocs)
			}
		}
	}
}
