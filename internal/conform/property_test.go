package conform

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pti/internal/guid"
	"pti/internal/typedesc"
)

// randDescription builds a random struct description with unique
// member names drawn from camel-case token pools.
func randDescription(r *rand.Rand, name string) *typedesc.TypeDescription {
	prims := []string{"int", "string", "float64", "bool", "int64"}
	nouns := []string{"Name", "Age", "Count", "Label", "Score", "Rate", "Code"}
	verbs := []string{"Get", "Set", "Fetch", "Store"}

	d := &typedesc.TypeDescription{
		Name:     name,
		Identity: guid.Derive("prop-" + name + fmt.Sprint(r.Int63())),
		Kind:     typedesc.KindStruct,
	}
	usedFields := map[string]bool{}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		fname := nouns[r.Intn(len(nouns))]
		if usedFields[fname] {
			continue
		}
		usedFields[fname] = true
		d.Fields = append(d.Fields, typedesc.Field{
			Name:     fname,
			Type:     typedesc.TypeRef{Name: prims[r.Intn(len(prims))]},
			Exported: true,
		})
	}
	usedMethods := map[string]bool{}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		mname := verbs[r.Intn(len(verbs))] + nouns[r.Intn(len(nouns))]
		if usedMethods[mname] {
			continue
		}
		usedMethods[mname] = true
		m := typedesc.Method{Name: mname}
		for j, pn := 0, r.Intn(3); j < pn; j++ {
			m.Params = append(m.Params, typedesc.TypeRef{Name: prims[r.Intn(len(prims))]})
		}
		for j, rn := 0, r.Intn(2); j < rn; j++ {
			m.Returns = append(m.Returns, typedesc.TypeRef{Name: prims[r.Intn(len(prims))]})
		}
		d.Methods = append(d.Methods, m)
	}
	return d
}

// verbose inserts an extra camel token after the first token of a
// member name: GetName -> GetExtraName, Name -> NameData. Token-subset
// policies must still unify the pair.
func verbose(name string) string {
	for i := 1; i < len(name); i++ {
		if name[i] >= 'A' && name[i] <= 'Z' {
			return name[:i] + "Extra" + name[i:]
		}
	}
	return name + "Data"
}

// verboseClone renames every member (and the type) consistently.
func verboseClone(d *typedesc.TypeDescription) *typedesc.TypeDescription {
	c := d.Clone()
	c.Name = d.Name + "X" // distance 1
	c.Identity = guid.Derive("verbose-" + d.Identity.String())
	for i := range c.Fields {
		c.Fields[i].Name = verbose(c.Fields[i].Name)
	}
	for i := range c.Methods {
		c.Methods[i].Name = verbose(c.Methods[i].Name)
	}
	return c
}

func TestPropertyReflexivity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, policy := range []Policy{Strict(), Relaxed(1), {NoPermutations: true}} {
		checker := New(nil, WithPolicy(policy))
		for i := 0; i < 200; i++ {
			d := randDescription(r, "Rand")
			res, err := checker.Check(d, d)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conformant {
				t.Fatalf("reflexivity violated under %+v: %s\ndesc: %+v", policy, res.Reason, d)
			}
			// Structural self-conformance (no identity shortcut).
			anon := d.Clone()
			anon.Identity = guid.Derive("other-" + fmt.Sprint(i))
			res, err = checker.Check(anon, d)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conformant {
				t.Fatalf("structural reflexivity violated under %+v: %s", policy, res.Reason)
			}
		}
	}
}

func TestPropertyConsistentRenamingConforms(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	checker := New(nil, WithPolicy(Relaxed(1)))
	for i := 0; i < 200; i++ {
		d := randDescription(r, "Base")
		v := verboseClone(d)
		res, err := checker.Check(v, d)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Conformant {
			t.Fatalf("verbose clone should conform: %s\nbase: %+v\nclone: %+v", res.Reason, d, v)
		}
		// Every expected member must be mapped.
		if len(res.Mapping.Methods) != len(d.Methods) {
			t.Fatalf("method mapping incomplete: %d/%d", len(res.Mapping.Methods), len(d.Methods))
		}
		if len(res.Mapping.Fields) != len(d.Fields) { // every generated field is exported
			t.Fatalf("field mapping incomplete: %d/%d", len(res.Mapping.Fields), len(d.Fields))
		}
		// The mapping must be injective.
		seen := map[string]bool{}
		for _, mm := range res.Mapping.Methods {
			if seen["m"+mm.Candidate] {
				t.Fatalf("method mapping not injective: %s", res.Mapping)
			}
			seen["m"+mm.Candidate] = true
		}
		for _, fm := range res.Mapping.Fields {
			if seen["f"+fm.Candidate] {
				t.Fatalf("field mapping not injective: %s", res.Mapping)
			}
			seen["f"+fm.Candidate] = true
		}
	}
}

func TestPropertyRemovingMemberBreaksConformance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	checker := New(nil, WithPolicy(Relaxed(1)))
	tried := 0
	for i := 0; i < 300 && tried < 150; i++ {
		d := randDescription(r, "Full")
		if len(d.Methods) == 0 {
			continue
		}
		tried++
		// Candidate is the verbose clone minus one method; unless
		// another candidate method happens to name-conform to the
		// removed one, conformance must fail.
		v := verboseClone(d)
		removedIdx := r.Intn(len(v.Methods))
		removed := d.Methods[removedIdx]
		v.Methods = append(v.Methods[:removedIdx], v.Methods[removedIdx+1:]...)

		res, err := checker.Check(v, d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Conformant {
			// Acceptable only if some remaining candidate method
			// name-conforms to the removed expected method (rare
			// verb/noun collisions).
			saved := false
			for _, mm := range res.Mapping.Methods {
				if mm.Expected == removed.Name {
					saved = true
				}
			}
			if !saved {
				t.Fatalf("conformance survived removal of %s with no substitute:\n%s",
					removed.Name, res.Mapping)
			}
		} else if !strings.Contains(res.Reason, "method") && !strings.Contains(res.Reason, "conform") {
			t.Fatalf("unexpected failure reason: %s", res.Reason)
		}
	}
	if tried < 50 {
		t.Fatalf("generator too weak: only %d usable cases", tried)
	}
}

func TestPropertyPermutedParamsConform(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	checker := New(nil, WithPolicy(Relaxed(1)))
	for i := 0; i < 200; i++ {
		arity := 1 + r.Intn(5)
		prims := []string{"int", "string", "float64", "bool", "int64"}
		params := make([]typedesc.TypeRef, arity)
		for j := range params {
			params[j] = typedesc.TypeRef{Name: prims[r.Intn(len(prims))]}
		}
		perm := r.Perm(arity)
		shuffled := make([]typedesc.TypeRef, arity)
		for j, p := range perm {
			shuffled[p] = params[j]
		}
		exp := &typedesc.TypeDescription{
			Name: "Svc", Identity: guid.Derive(fmt.Sprint("e", i)), Kind: typedesc.KindStruct,
			Methods: []typedesc.Method{{Name: "Do", Params: params}},
		}
		cand := &typedesc.TypeDescription{
			Name: "Svc", Identity: guid.Derive(fmt.Sprint("c", i)), Kind: typedesc.KindStruct,
			Methods: []typedesc.Method{{Name: "Do", Params: shuffled}},
		}
		res, err := checker.Check(cand, exp)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Conformant {
			t.Fatalf("permuted params should conform: %s\nexp %v\ncand %v", res.Reason, params, shuffled)
		}
		mm, ok := res.Mapping.MethodFor("Do")
		if !ok {
			t.Fatal("no Do mapping")
		}
		// The found permutation must map each expected param to a
		// type-identical candidate slot.
		for j, slot := range mm.Perm {
			if cand.Methods[0].Params[slot].Name != params[j].Name {
				t.Fatalf("perm %v maps param %d (%s) to slot %d (%s)",
					mm.Perm, j, params[j].Name, slot, cand.Methods[0].Params[slot].Name)
			}
		}
	}
}

func TestPropertyImplicitSubsumesExplicit(t *testing.T) {
	// On every pair of random descriptions, explicit conformance
	// implies implicit conformance (rule (vi) includes ≤e).
	r := rand.New(rand.NewSource(5))
	repo := typedesc.NewRepository()
	var corpus []*typedesc.TypeDescription
	for i := 0; i < 20; i++ {
		d := randDescription(r, fmt.Sprintf("T%d", i))
		// Randomly declare an interface/superclass link to an
		// earlier description to create explicit edges.
		if len(corpus) > 0 && r.Intn(2) == 0 {
			target := corpus[r.Intn(len(corpus))]
			ref := target.Ref()
			if r.Intn(2) == 0 {
				d.Super = &ref
			} else {
				d.Interfaces = append(d.Interfaces, ref)
			}
		}
		corpus = append(corpus, d)
		if err := repo.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	full := New(repo, WithPolicy(Strict()))
	explicit := NewExplicit(repo)
	for _, cand := range corpus {
		for _, exp := range corpus {
			re, err := explicit.Check(cand, exp)
			if err != nil {
				t.Fatal(err)
			}
			if !re.Conformant {
				continue
			}
			rf, err := full.Check(cand, exp)
			if err != nil {
				t.Fatal(err)
			}
			if !rf.Conformant {
				t.Fatalf("implicit does not subsume explicit: %s vs %s (%s)",
					cand.Name, exp.Name, rf.Reason)
			}
		}
	}
}
