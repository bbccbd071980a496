package levenshtein

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestDistanceTable(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want int
	}{
		{"both empty", "", "", 0},
		{"left empty", "", "abc", 3},
		{"right empty", "abc", "", 3},
		{"equal", "person", "person", 0},
		{"single substitution", "cat", "cut", 1},
		{"single insertion", "cat", "cart", 1},
		{"single deletion", "cart", "cat", 1},
		{"classic kitten", "kitten", "sitting", 3},
		{"classic flaw", "flaw", "lawn", 2},
		{"case differs", "Person", "person", 1},
		{"paper setters", "setName", "setPersonName", 6},
		{"paper getters", "getName", "getPersonName", 6},
		{"unicode", "héllo", "hello", 1},
		{"transposition costs two", "ab", "ba", 2},
		{"disjoint", "abc", "xyz", 3},
		{"prefix", "type", "typedesc", 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Distance(tt.a, tt.b); got != tt.want {
				t.Errorf("Distance(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDistanceFold(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"Person", "person", 0},
		{"PERSON", "person", 0},
		{"GetName", "getname", 0},
		{"GetName", "getName", 0},
		{"SetName", "SetPersonName", 6},
	}
	for _, tt := range tests {
		if got := DistanceFold(tt.a, tt.b); got != tt.want {
			t.Errorf("DistanceFold(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestWithinDistance(t *testing.T) {
	tests := []struct {
		a, b string
		k    int
		want bool
	}{
		{"person", "person", 0, true},
		{"person", "persons", 0, false},
		{"person", "persons", 1, true},
		{"abc", "abcdef", 2, false}, // length lower bound short-circuits
		{"abc", "abcdef", 3, true},
		{"a", "b", -1, false},
		{"", "", 0, true},
	}
	for _, tt := range tests {
		if got := WithinDistance(tt.a, tt.b, tt.k); got != tt.want {
			t.Errorf("WithinDistance(%q, %q, %d) = %v, want %v", tt.a, tt.b, tt.k, got, tt.want)
		}
	}
}

func TestWithinDistanceFold(t *testing.T) {
	if !WithinDistanceFold("GetName", "getname", 0) {
		t.Error("WithinDistanceFold should fold case before comparing")
	}
	if WithinDistanceFold("GetName", "getnames", 0) {
		t.Error("WithinDistanceFold must still count real edits")
	}
}

func TestMatchWildcard(t *testing.T) {
	tests := []struct {
		pattern, name string
		want          bool
	}{
		{"person", "person", true},
		{"person", "persons", false},
		{"person*", "persons", true},
		{"*name*", "setPersonName", false}, // case-sensitive
		{"*Name*", "setPersonName", true},
		{"set*Name", "setPersonName", true},
		{"set*Name", "setName", true},
		{"get?ame", "getName", true},
		{"get?ame", "getame", false},
		{"get?ame", "getXXame", false},
		{"*", "", true},
		{"", "", true},
		{"", "x", false},
		{"?", "", false},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "ac", false},
		{"**", "anything", true},
	}
	for _, tt := range tests {
		if got := MatchWildcard(tt.pattern, tt.name); got != tt.want {
			t.Errorf("MatchWildcard(%q, %q) = %v, want %v", tt.pattern, tt.name, got, tt.want)
		}
	}
}

func TestMatchWildcardFold(t *testing.T) {
	if !MatchWildcardFold("*name*", "setPersonName") {
		t.Error("MatchWildcardFold should be case-insensitive")
	}
	if MatchWildcardFold("*names*", "setPersonName") {
		t.Error("MatchWildcardFold must not over-match")
	}
}

// randomASCII produces short random strings for metric properties.
func randomASCII(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + r.Intn(6))) // small alphabet → collisions
	}
	return sb.String()
}

func TestDistanceMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := randomASCII(r, 12)
		b := randomASCII(r, 12)
		c := randomASCII(r, 12)

		dab := Distance(a, b)
		dba := Distance(b, a)
		if dab != dba {
			t.Fatalf("symmetry violated: d(%q,%q)=%d d(%q,%q)=%d", a, b, dab, b, a, dba)
		}
		if (dab == 0) != (a == b) {
			t.Fatalf("identity violated: d(%q,%q)=%d", a, b, dab)
		}
		dac := Distance(a, c)
		dbc := Distance(b, c)
		if dac > dab+dbc {
			t.Fatalf("triangle inequality violated: d(%q,%q)=%d > %d+%d", a, c, dac, dab, dbc)
		}
		// Upper bound: max length; lower bound: length difference.
		la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
		hi := la
		if lb > hi {
			hi = lb
		}
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		if dab > hi || dab < lo {
			t.Fatalf("bounds violated: d(%q,%q)=%d not in [%d,%d]", a, b, dab, lo, hi)
		}
	}
}

func TestDistanceEditProperty(t *testing.T) {
	// Applying one random edit moves distance by at most one.
	f := func(s string, pos uint8, ch byte) bool {
		if !utf8.ValidString(s) {
			return true
		}
		rs := []rune(s)
		p := 0
		if len(rs) > 0 {
			p = int(pos) % len(rs)
		}
		edited := make([]rune, 0, len(rs)+1)
		edited = append(edited, rs[:p]...)
		edited = append(edited, rune('a'+ch%26))
		edited = append(edited, rs[p:]...)
		return Distance(s, string(edited)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWithinDistanceAgreesWithDistance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a := randomASCII(r, 10)
		b := randomASCII(r, 10)
		k := r.Intn(5)
		want := Distance(a, b) <= k
		if got := WithinDistance(a, b, k); got != want {
			t.Fatalf("WithinDistance(%q,%q,%d)=%v, Distance=%d", a, b, k, got, Distance(a, b))
		}
	}
}

func BenchmarkDistanceShortNames(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance("setPersonName", "setName")
	}
}

func BenchmarkWithinDistanceShortCircuit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WithinDistance("setPersonName", "x", 0)
	}
}

// TestBandedAgreesWithFullDistance fuzzes the banded O(k·n)
// implementation against the full matrix.
func TestBandedAgreesWithFullDistance(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		a := randomASCII(r, 14)
		b := randomASCII(r, 14)
		k := r.Intn(6)
		want := Distance(a, b) <= k
		if got := WithinDistance(a, b, k); got != want {
			t.Fatalf("WithinDistance(%q, %q, %d) = %v, Distance = %d",
				a, b, k, got, Distance(a, b))
		}
	}
}

func TestBandedEdgeCases(t *testing.T) {
	tests := []struct {
		a, b string
		k    int
		want bool
	}{
		{"", "", 0, true},
		{"", "abc", 3, true},
		{"", "abc", 2, false},
		{"abc", "", 3, true},
		{"a", "a", 0, true},
		{"abcdef", "abcdef", 0, true},
		{"kitten", "sitting", 3, true},
		{"kitten", "sitting", 2, false},
		{"setpersonname", "setname", 6, true},
		{"setpersonname", "setname", 5, false},
	}
	for _, tt := range tests {
		if got := WithinDistance(tt.a, tt.b, tt.k); got != tt.want {
			t.Errorf("WithinDistance(%q, %q, %d) = %v, want %v", tt.a, tt.b, tt.k, got, tt.want)
		}
	}
}

func BenchmarkWithinDistanceBanded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WithinDistance("setPersonName", "setPersonalName", 2)
	}
}

// TestFoldMatchesToLower checks the in-place folding against
// strings.ToLower, including names past the stack buffers, letters
// with special case mappings and invalid UTF-8.
func TestFoldMatchesToLower(t *testing.T) {
	pieces := []string{"a", "B", "İ", "ß", "ẞ", "ſ", "\u212a", "Σ", "ς", "*", "?", "\xff", "Name"}
	r := rand.New(rand.NewSource(11))
	name := func() string {
		var b strings.Builder
		n := r.Intn(8)
		if r.Intn(10) == 0 {
			n = 40 + r.Intn(40) // past the 64-rune stack buffers
		}
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	for i := 0; i < 2000; i++ {
		a, b, k := name(), name(), r.Intn(4)
		la, lb := strings.ToLower(a), strings.ToLower(b)
		if got, want := DistanceFold(a, b), Distance(la, lb); got != want {
			t.Fatalf("DistanceFold(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got, want := WithinDistanceFold(a, b, k), WithinDistance(la, lb, k); got != want {
			t.Fatalf("WithinDistanceFold(%q, %q, %d) = %v, want %v", a, b, k, got, want)
		}
		if got, want := MatchWildcardFold(a, b), MatchWildcard(la, lb); got != want {
			t.Fatalf("MatchWildcardFold(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}

// TestWithinRunesWideBand covers bands wider than the stack arrays
// (2k+1 > 16).
func TestWithinRunesWideBand(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		a, b := randomASCII(r, 30), randomASCII(r, 30)
		k := 6 + r.Intn(12)
		if got, want := WithinRunes([]rune(a), []rune(b), k), Distance(a, b) <= k; got != want {
			t.Fatalf("WithinRunes(%q, %q, %d) = %v, Distance = %d", a, b, k, got, Distance(a, b))
		}
	}
}

// TestFoldedComparisonsAllocateNothing pins the in-place folding for
// names within the stack buffers.
func TestFoldedComparisonsAllocateNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(50, func() {
		DistanceFold("setPersonName", "SetName")
		WithinDistanceFold("GetStockSymbol", "getstocksymbols", 2)
		MatchWildcardFold("get*NAME", "getPersonName")
		WithinRunes([]rune("abc"), []rune("abd"), 7)
	})
	if allocs != 0 {
		t.Errorf("folded comparisons allocate %.0f, want 0", allocs)
	}
}
