package conform

import (
	"reflect"
	"strings"
	"testing"
)

// TestSplitCamel pins the tokens of the reference splitCamel and checks
// that nextToken walks the same tokens in place.
func TestSplitCamel(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"setName", []string{"set", "name"}},
		{"setPersonName", []string{"set", "person", "name"}},
		{"GetStockSymbol", []string{"get", "stock", "symbol"}},
		{"snake_case_name", []string{"snake", "case", "name"}},
		{"kebab-case", []string{"kebab", "case"}},
		{"HTTPServer", []string{"http", "server"}},
		{"parseXMLDoc", []string{"parse", "xml", "doc"}},
		{"ID", []string{"id"}},
		{"", nil},
		{"lower", []string{"lower"}},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			if got := splitCamel(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("splitCamel(%q) = %v, want %v", tt.in, got, tt.want)
			}
			var walked []string
			for start, end := nextToken(tt.in, 0); start < end; start, end = nextToken(tt.in, end) {
				walked = append(walked, strings.ToLower(tt.in[start:end]))
			}
			if !reflect.DeepEqual(walked, tt.want) {
				t.Errorf("nextToken walks %q as %v, want %v", tt.in, walked, tt.want)
			}
		})
	}
}

func TestTokenSubset(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"setName", "setPersonName", true},
		{"setPersonName", "setName", true}, // symmetric by construction
		{"getName", "getPersonName", true},
		{"GetSymbol", "GetStockSymbol", true},
		{"GetAge", "SetName", false},
		{"GetName", "GetAge", false},
		{"setName", "namePersonSet", false}, // order matters
		{"x", "x", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, tt := range tests {
		if got := tokenSubset(tt.a, tt.b); got != tt.want {
			t.Errorf("tokenSubset(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPolicyTypeNameConforms(t *testing.T) {
	tests := []struct {
		name                string
		policy              Policy
		expected, candidate string
		want                bool
	}{
		{"strict equal", Strict(), "Person", "Person", true},
		{"strict case-insensitive", Strict(), "person", "PERSON", true},
		{"strict rejects distance 1", Strict(), "PersonA", "PersonB", false},
		{"relaxed accepts distance 1", Relaxed(1), "PersonA", "PersonB", true},
		{"relaxed rejects distance 3", Relaxed(1), "Person", "Personnel", false},
		{"case sensitive rejects", Policy{CaseSensitive: true}, "person", "Person", false},
		{"wildcards off by default", Strict(), "Person*", "PersonA", false},
		{"wildcards on", Policy{Wildcards: true}, "Person*", "PersonAnything", true},
		{"wildcard question", Policy{Wildcards: true}, "Person?", "PersonA", true},
		{"wildcard no match", Policy{Wildcards: true}, "Stock*", "PersonA", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.policy.typeNameConforms(tt.expected, tt.candidate); got != tt.want {
				t.Errorf("typeNameConforms(%q, %q) = %v, want %v", tt.expected, tt.candidate, got, tt.want)
			}
		})
	}
}

func TestPolicyMemberNameConforms(t *testing.T) {
	tests := []struct {
		name                string
		policy              Policy
		expected, candidate string
		want                bool
	}{
		{"paper example strict fails", Strict(), "setName", "setPersonName", false},
		{"paper example token subset", Relaxed(0), "setName", "setPersonName", true},
		{"token subset both directions", Relaxed(0), "setPersonName", "setName", true},
		{"distance fallback", Relaxed(2), "GetAge", "GetAges", true},
		{"unrelated rejected", Relaxed(2), "GetAge", "SetNothing", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.policy.memberNameConforms(tt.expected, tt.candidate); got != tt.want {
				t.Errorf("memberNameConforms(%q, %q) = %v, want %v", tt.expected, tt.candidate, got, tt.want)
			}
		})
	}
}

func TestPolicyFingerprintDistinguishes(t *testing.T) {
	policies := []Policy{
		Strict(),
		Relaxed(1),
		Relaxed(2),
		{CaseSensitive: true},
		{Wildcards: true},
		{TokenSubset: true},
		{NoPermutations: true},
		{MaxDepth: 5},
	}
	seen := make(map[string]int)
	for i, p := range policies {
		fp := p.fingerprint()
		if j, dup := seen[fp]; dup {
			t.Errorf("policies %d and %d share fingerprint %q", i, j, fp)
		}
		seen[fp] = i
	}
}

func TestPolicyExactNameEqual(t *testing.T) {
	p := Strict()
	if !p.exactNameEqual("int", "int") {
		t.Error("int == int")
	}
	if p.exactNameEqual("int", "uint") {
		t.Error("int != uint")
	}
	cs := Policy{CaseSensitive: true}
	if cs.exactNameEqual("Int", "int") {
		t.Error("case-sensitive exact should reject Int/int")
	}
	if !p.exactNameEqual("Int", "int") {
		t.Error("case-insensitive exact should accept Int/int")
	}
}

func TestMaxDepthDefault(t *testing.T) {
	if Strict().maxDepth() != defaultMaxDepth {
		t.Errorf("default max depth = %d", Strict().maxDepth())
	}
	if (Policy{MaxDepth: 3}).maxDepth() != 3 {
		t.Error("explicit max depth ignored")
	}
}

func TestIgnoreConstructorsFingerprint(t *testing.T) {
	a := Policy{IgnoreConstructors: true}
	if a.fingerprint() == Strict().fingerprint() {
		t.Error("IgnoreConstructors must change the policy fingerprint")
	}
}
