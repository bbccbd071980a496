package conform

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"pti/internal/fixtures"
	"pti/internal/guid"
	"pti/internal/typedesc"
)

var updateCheckResults = flag.Bool("update-check-results", false,
	"rewrite testdata/check_results.golden from the current checker")

const checkResultsGolden = "testdata/check_results.golden"

// resultPolicies covers every name-rule flag the checker reads, with
// and without BestMatch, permutations and constructors.
var resultPolicies = []Policy{
	Strict(),
	Relaxed(0),
	Relaxed(1),
	Relaxed(2),
	{CaseSensitive: true, TypeNameDistance: 1, MemberNameDistance: 1},
	{Wildcards: true},
	{Wildcards: true, CaseSensitive: true, TokenSubset: true},
	{TokenSubset: true, BestMatch: true, TypeNameDistance: 2, MemberNameDistance: 2},
	{NoPermutations: true, TokenSubset: true, MemberNameDistance: 1},
	{IgnoreConstructors: true, BestMatch: true, TokenSubset: true, TypeNameDistance: 1, MemberNameDistance: 1},
}

// fixtureDescriptions describes the fixture types and their pointer
// forms, in a fixed order.
func fixtureDescriptions(t *testing.T) []*typedesc.TypeDescription {
	t.Helper()
	var out []*typedesc.TypeDescription
	for _, typ := range []reflect.Type{
		reflect.TypeOf(fixtures.PersonA{}),
		reflect.TypeOf(fixtures.PersonB{}),
		reflect.TypeOf(fixtures.Employee{}),
		reflect.TypeOf(fixtures.Address{}),
		reflect.TypeOf(fixtures.Contact{}),
		reflect.TypeOf(fixtures.Node{}),
		reflect.TypeOf(fixtures.StockQuoteA{}),
		reflect.TypeOf(fixtures.StockQuoteB{}),
		reflect.TypeOf(fixtures.ProfileV1{}),
		reflect.TypeOf(fixtures.ProfileV2{}),
		reflect.TypeOf(fixtures.Swapped{}),
		reflect.TypeOf(fixtures.Swappee{}),
		reflect.TypeOf((*fixtures.Person)(nil)).Elem(),
		reflect.TypeOf((*fixtures.Named)(nil)).Elem(),
	} {
		forms := []reflect.Type{typ}
		if typ.Kind() == reflect.Struct {
			forms = append(forms, reflect.PtrTo(typ))
		}
		for _, f := range forms {
			d, err := typedesc.Describe(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
	}
	return out
}

// mutateName rewrites a name the ways independently written code
// spells the same member: other case, separators, digits, Unicode
// letters with special case mappings, a dropped or an extra token.
func mutateName(r *rand.Rand, name string) string {
	switch r.Intn(10) {
	case 0:
		return strings.ToLower(name)
	case 1:
		return strings.ToUpper(name)
	case 2:
		var b strings.Builder
		for i, c := range name {
			if i > 0 && c >= 'A' && c <= 'Z' {
				b.WriteByte("_-"[r.Intn(2)])
			}
			b.WriteRune(c)
		}
		return b.String()
	case 3:
		return name + fmt.Sprint(r.Intn(10))
	case 4:
		specials := []string{"İ", "ß", "ẞ", "ſ", "\u212a", "É", "é", "Σ", "ς"}
		i := r.Intn(len(name) + 1)
		return name[:i] + specials[r.Intn(len(specials))] + name[i:]
	case 5:
		if len(name) > 1 {
			i := r.Intn(len(name))
			return name[:i] + name[i+1:]
		}
		return name
	case 6:
		return verbose(name)
	case 7:
		return "ID" + name
	default:
		return name
	}
}

// wildcardName turns a name into an expected-side pattern.
func wildcardName(r *rand.Rand, name string) string {
	switch r.Intn(4) {
	case 0:
		return name[:len(name)/2] + "*"
	case 1:
		return "*" + strings.ToLower(name[len(name)/2:])
	case 2:
		return "?" + name[1:]
	default:
		return name
	}
}

// mutatedClone renames the members of d with rename and, now and
// then, adds a second spelling of a field so BestMatch has a choice.
func mutatedClone(r *rand.Rand, d *typedesc.TypeDescription, tag string, rename func(*rand.Rand, string) string) *typedesc.TypeDescription {
	c := d.Clone()
	c.Name = rename(r, d.Name)
	c.Identity = guid.Derive(tag + "-" + d.Identity.String())
	for i := range c.Fields {
		c.Fields[i].Name = rename(r, c.Fields[i].Name)
	}
	for i := range c.Methods {
		c.Methods[i].Name = rename(r, c.Methods[i].Name)
	}
	if len(d.Fields) > 0 && r.Intn(3) == 0 {
		extra := d.Fields[r.Intn(len(d.Fields))]
		extra.Name = mutateName(r, extra.Name) + "X"
		c.Fields = append(c.Fields, extra)
	}
	return c
}

func formatMapping(m *Mapping) string {
	if m == nil {
		return "-"
	}
	return fmt.Sprintf("%s %s/%s %s id=%t F%v M%v C%v",
		m.Candidate.Name, m.Candidate.Identity, m.Expected.Name, m.Expected.Identity,
		m.Identity, m.Fields, m.Methods, m.Ctors)
}

// resultLine renders everything Check and Explain report for a pair.
func resultLine(t *testing.T, c *Checker, cand, exp *typedesc.TypeDescription) string {
	t.Helper()
	res, err := c.Check(cand, exp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Explain(cand, exp)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s<-%s check %t %q %s explain %t %q %q %s",
		exp.Name, cand.Name, res.Conformant, res.Reason, formatMapping(res.Mapping),
		rep.Conformant, rep.ShortCircuit, rep.Failures, formatMapping(rep.Mapping))
}

// TestCheckResultsUnchanged compares every Check and Explain result
// over the fixtures and over generated, renamed descriptions with
// digests of the results the checker gave before its name rules
// compared in place (testdata/check_results.golden). A digest covers
// Conformant, Reason, Mapping and the Explain report of each pair,
// per policy and source.
func TestCheckResultsUnchanged(t *testing.T) {
	repo := newRepo(t)
	fix := fixtureDescriptions(t)
	r := rand.New(rand.NewSource(33))
	var gen [][2]*typedesc.TypeDescription
	for i := 0; i < 150; i++ {
		d := randDescription(r, "BaseType")
		c := mutatedClone(r, d, "mut", mutateName)
		w := mutatedClone(r, d, "wild", wildcardName)
		gen = append(gen, [2]*typedesc.TypeDescription{c, d}, [2]*typedesc.TypeDescription{d, c}, [2]*typedesc.TypeDescription{c, w})
	}

	var got []string
	for pi, p := range resultPolicies {
		checker := New(repo, WithPolicy(p))
		digest := func(source string, lines []string) {
			sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
			got = append(got, fmt.Sprintf("policy=%d source=%s pairs=%d sha256=%x", pi, source, len(lines), sum))
		}
		var lines []string
		for _, cand := range fix {
			for _, exp := range fix {
				lines = append(lines, resultLine(t, checker, cand, exp))
			}
		}
		digest("fixtures", lines)
		lines = lines[:0]
		for _, pair := range gen {
			lines = append(lines, resultLine(t, checker, pair[0], pair[1]))
		}
		digest("generated", lines)
	}

	if *updateCheckResults {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkResultsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(checkResultsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d digests, the checker produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("results differ:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
