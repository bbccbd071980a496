package conform

import (
	"errors"

	"pti/internal/typedesc"
)

// Report is the full diagnostic form of a conformance check: instead
// of stopping at the first violated aspect (as Check does), Explain
// evaluates every aspect and collects each failure. It exists for
// tooling and debugging — the paper's rules give a yes/no answer, but
// a developer unifying two independently written types wants to know
// everything that still diverges.
type Report struct {
	Conformant bool
	// ShortCircuit names the fast path taken ("equivalent" or
	// "explicit"), empty when the full rules ran.
	ShortCircuit string
	// Failures lists every violated aspect, empty when conformant.
	Failures []string
	// Mapping is present when conformant.
	Mapping *Mapping
}

// Explain runs the full rule set without early exit and reports every
// violated aspect.
func (c *Checker) Explain(candidate, expected *typedesc.TypeDescription) (*Report, error) {
	if candidate == nil || expected == nil {
		return nil, errors.New("conform: nil type description")
	}
	ctx := &checkContext{checker: c}

	if !candidate.Identity.IsNil() && candidate.Identity == expected.Identity {
		return &Report{
			Conformant:   true,
			ShortCircuit: "equivalent",
			Mapping:      identityResult(candidate, expected, "").Mapping,
		}, nil
	}
	if ctx.explicitConforms(candidate, expected) {
		return &Report{
			Conformant:   true,
			ShortCircuit: "explicit",
			Mapping:      identityResult(candidate, expected, "").Mapping,
		}, nil
	}

	report := &Report{}
	mapping := &Mapping{Candidate: candidate.Ref(), Expected: expected.Ref()}
	p := c.policy

	if !kindCompatible(candidate.Kind, expected.Kind) {
		report.Failures = append(report.Failures,
			fail("kind mismatch: %s is %s, %s is %s",
				candidate.Name, candidate.Kind, expected.Name, expected.Kind).Reason)
	}
	if !p.typeNameConforms(expected.Name, candidate.Name) {
		report.Failures = append(report.Failures,
			fail("name %q does not conform to %q", candidate.Name, expected.Name).Reason)
	}
	if r := ctx.checkComposite(candidate, expected); r != nil {
		report.Failures = append(report.Failures, r.Reason)
	}
	if r := ctx.checkSupertypes(candidate, expected); r != nil {
		report.Failures = append(report.Failures, r.Reason)
	}
	// Fields/methods/ctors: evaluate per expected member so every
	// unmatched member is reported, not just the first.
	used := make(map[string]bool, len(candidate.Fields))
	for _, fexp := range expected.Fields {
		if !fexp.Exported {
			continue
		}
		one := &Mapping{Candidate: candidate.Ref(), Expected: expected.Ref()}
		single := &typedesc.TypeDescription{
			Name: expected.Name, Identity: expected.Identity, Kind: expected.Kind,
			Fields: []typedesc.Field{fexp},
		}
		if r := ctx.checkFields(candidate, single, one, true); r != nil {
			report.Failures = append(report.Failures, r.Reason)
			continue
		}
		// Respect injectivity across the whole report.
		fm := one.Fields[0]
		if used[fm.Candidate] {
			report.Failures = append(report.Failures,
				fail("field %s.%s already maps to %s.%s", expected.Name, fm.Expected, candidate.Name, fm.Candidate).Reason)
			continue
		}
		used[fm.Candidate] = true
		mapping.Fields = append(mapping.Fields, fm)
	}
	usedM := make(map[string]bool, len(candidate.Methods))
	for _, mexp := range expected.Methods {
		mm, ok := ctx.matchMethod(candidate, mexp, usedM, true)
		if !ok {
			report.Failures = append(report.Failures,
				fail("no method of %s conforms to %s.%s", candidate.Name, expected.Name, mexp.Signature()).Reason)
			continue
		}
		usedM[mm.Candidate] = true
		mapping.Methods = append(mapping.Methods, mm)
	}
	if !p.IgnoreConstructors {
		for _, cexp := range expected.Constructors {
			single := &typedesc.TypeDescription{
				Name: expected.Name, Identity: expected.Identity, Kind: expected.Kind,
				Constructors: []typedesc.Constructor{cexp},
			}
			one := &Mapping{}
			if r := ctx.checkCtors(candidate, single, one, true); r != nil {
				report.Failures = append(report.Failures, r.Reason)
				continue
			}
			mapping.Ctors = append(mapping.Ctors, one.Ctors...)
		}
	}

	report.Conformant = len(report.Failures) == 0
	if report.Conformant {
		report.Mapping = mapping
	}
	return report, nil
}
