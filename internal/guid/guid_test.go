package guid

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIsUniqueAndNonNil(t *testing.T) {
	seen := make(map[GUID]bool, 1000)
	for i := 0; i < 1000; i++ {
		g := New()
		if g.IsNil() {
			t.Fatal("New returned the nil GUID")
		}
		if seen[g] {
			t.Fatalf("New returned duplicate GUID %s", g)
		}
		seen[g] = true
	}
}

func TestNewVersionBits(t *testing.T) {
	g := New()
	if v := g[6] >> 4; v != 4 {
		t.Errorf("version nibble = %d, want 4", v)
	}
	if variant := g[8] >> 6; variant != 0b10 {
		t.Errorf("variant bits = %b, want 10", variant)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := Derive("struct Person{Name string}")
	b := Derive("struct Person{Name string}")
	c := Derive("struct Person{Name string; Age int}")
	if a != b {
		t.Error("Derive is not deterministic for equal inputs")
	}
	if a == c {
		t.Error("Derive collided for different inputs")
	}
	if a.IsNil() {
		t.Error("Derive returned the nil GUID")
	}
	if v := a[6] >> 4; v != 5 {
		t.Errorf("derived version nibble = %d, want 5", v)
	}
}

func TestStringFormat(t *testing.T) {
	g := Derive("x")
	s := g.String()
	if len(s) != 36 {
		t.Fatalf("String length = %d, want 36", len(s))
	}
	for _, i := range []int{8, 13, 18, 23} {
		if s[i] != '-' {
			t.Errorf("String()[%d] = %c, want '-'", i, s[i])
		}
	}
	if strings.ToLower(s) != s {
		t.Error("String should be lowercase hex")
	}
}

func TestParseRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		g := New()
		got, err := Parse(g.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", g.String(), err)
		}
		if got != g {
			t.Fatalf("Parse round-trip mismatch: %s != %s", got, g)
		}
	}
}

func TestParseVariants(t *testing.T) {
	g := Derive("variant-test")
	canonical := g.String()
	tests := []struct {
		name  string
		input string
		ok    bool
	}{
		{"canonical", canonical, true},
		{"uppercase", strings.ToUpper(canonical), true},
		{"braced", "{" + canonical + "}", true},
		{"plain hex", strings.ReplaceAll(canonical, "-", ""), true},
		{"too short", canonical[:35], false},
		{"bad dash positions", strings.Replace(canonical, "-", "x", 1), false},
		{"non-hex", "zz" + canonical[2:], false},
		{"empty", "", false},
		{"just braces", "{}", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse(tt.input)
			if tt.ok {
				if err != nil {
					t.Fatalf("Parse(%q): %v", tt.input, err)
				}
				if got != g {
					t.Fatalf("Parse(%q) = %s, want %s", tt.input, got, g)
				}
			} else if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tt.input)
			}
		})
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	g := New()
	text, err := g.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back GUID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != g {
		t.Errorf("text round-trip mismatch: %s != %s", back, g)
	}
}

func TestBinaryMarshalRoundTrip(t *testing.T) {
	g := New()
	raw, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 16 {
		t.Fatalf("MarshalBinary length = %d, want 16", len(raw))
	}
	var back GUID
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if back != g {
		t.Errorf("binary round-trip mismatch")
	}
	if err := back.UnmarshalBinary(raw[:15]); err == nil {
		t.Error("UnmarshalBinary accepted short input")
	}
}

func TestMarshalBinaryReturnsCopy(t *testing.T) {
	g := New()
	raw, _ := g.MarshalBinary()
	raw[0] ^= 0xff
	if raw[0] == g[0] {
		t.Error("MarshalBinary must return an independent copy")
	}
}

func TestDeriveQuickRoundTrip(t *testing.T) {
	f := func(s string) bool {
		g := Derive(s)
		parsed, err := Parse(g.String())
		return err == nil && parsed == g && !g.IsNil()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNilBehaviour(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false")
	}
	if Nil.String() != "00000000-0000-0000-0000-000000000000" {
		t.Errorf("Nil.String() = %s", Nil.String())
	}
	parsed, err := Parse(Nil.String())
	if err != nil || !parsed.IsNil() {
		t.Errorf("Parse(nil form) = %v, %v", parsed, err)
	}
}

func BenchmarkDerive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Derive("struct Person{Name string; Age int}")
	}
}

func BenchmarkParse(b *testing.B) {
	s := New().String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConcurrentNew(t *testing.T) {
	const goroutines = 16
	results := make(chan GUID, goroutines*100)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				results <- New()
			}
		}()
	}
	seen := make(map[GUID]bool, goroutines*100)
	for i := 0; i < goroutines*100; i++ {
		g := <-results
		if seen[g] {
			t.Fatal("duplicate GUID under concurrency")
		}
		seen[g] = true
	}
}

func TestAppendText(t *testing.T) {
	g := New()
	got := g.AppendText([]byte("id="))
	if want := "id=" + g.String(); string(got) != want {
		t.Errorf("AppendText = %q, want %q", got, want)
	}
	if s := Nil.AppendText(nil); string(s) != "00000000-0000-0000-0000-000000000000" {
		t.Errorf("Nil.AppendText = %q", s)
	}
}

func TestDeriveBytesMatchesDerive(t *testing.T) {
	for _, s := range []string{"", "x", "struct Person{Name:string;}[]"} {
		if DeriveBytes([]byte(s)) != Derive(s) {
			t.Errorf("DeriveBytes(%q) differs from Derive", s)
		}
	}
}

// TestParseAllocatesNothing pins the in-place hex decoding of both
// textual forms.
func TestParseAllocatesNothing(t *testing.T) {
	g := New()
	dashed, plain := []byte(g.String()), []byte(strings.ReplaceAll(g.String(), "-", ""))
	allocs := testing.AllocsPerRun(50, func() {
		var a, b GUID
		if a.UnmarshalText(dashed) != nil || b.UnmarshalText(plain) != nil || a != g || b != g {
			t.Fatal("parse failed")
		}
	})
	if allocs != 0 {
		t.Errorf("UnmarshalText allocates %.0f, want 0", allocs)
	}
}
