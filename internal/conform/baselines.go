package conform

import (
	"errors"

	"pti/internal/guid"
	"pti/internal/typedesc"
)

// This file implements the comparison points discussed in the paper's
// related-work section (Section 2). They share the Checker's Result
// shape so the benchmark harness can swap them in uniformly.

// Relation is the common shape of all conformance relations: the full
// implicit structural checker and the baselines below.
type Relation interface {
	Check(candidate, expected *typedesc.TypeDescription) (*Result, error)
}

var (
	_ Relation = (*Checker)(nil)
	_ Relation = (*ExplicitChecker)(nil)
	_ Relation = (*NameOnlyChecker)(nil)
	_ Relation = (*TaggedChecker)(nil)
)

// ExplicitChecker accepts only equivalence and explicit subtyping —
// the conformance offered by Java RMI and plain .NET (Sections 2.4,
// 2.5): "by virtue of subtyping, an instance of a new class can be
// used ... provided that it conforms to the type of the corresponding
// formal argument".
type ExplicitChecker struct {
	resolver typedesc.Resolver
}

// NewExplicit returns the explicit-only baseline.
func NewExplicit(resolver typedesc.Resolver) *ExplicitChecker {
	return &ExplicitChecker{resolver: resolver}
}

// Check implements Relation.
func (e *ExplicitChecker) Check(candidate, expected *typedesc.TypeDescription) (*Result, error) {
	if candidate == nil || expected == nil {
		return nil, errors.New("conform: nil type description")
	}
	if !candidate.Identity.IsNil() && candidate.Identity == expected.Identity {
		return identityResult(candidate, expected, "equivalent (same identity)"), nil
	}
	ctx := &checkContext{
		checker:     &Checker{resolver: e.resolver},
		assumptions: make(map[pairKey]bool),
	}
	if ctx.explicitConforms(candidate, expected) {
		return identityResult(candidate, expected, "explicit conformance (subtype)"), nil
	}
	return fail("%s is not an explicit subtype of %s", candidate.Name, expected.Name), nil
}

// NameOnlyChecker accepts any pair of types whose names conform — the
// "weaker rule taking into account only the name of the types" that
// the paper warns "breaks the type safety and might lead to receive
// an error while trying to call a specific method onto the object"
// (Section 4.2). It exists to demonstrate exactly that failure in the
// ablation tests.
type NameOnlyChecker struct {
	policy Policy
}

// NewNameOnly returns the unsound name-only baseline.
func NewNameOnly(p Policy) *NameOnlyChecker {
	return &NameOnlyChecker{policy: p}
}

// Check implements Relation.
func (n *NameOnlyChecker) Check(candidate, expected *typedesc.TypeDescription) (*Result, error) {
	if candidate == nil || expected == nil {
		return nil, errors.New("conform: nil type description")
	}
	if !n.policy.typeNameConforms(expected.Name, candidate.Name) {
		return fail("name %q does not conform to %q", candidate.Name, expected.Name), nil
	}
	// The mapping is the reckless part: every expected member is
	// assumed to exist on the candidate under its own name.
	return &Result{
		Conformant: true,
		Reason:     "name-only conformance (unsound)",
		Mapping: &Mapping{
			Candidate: candidate.Ref(),
			Expected:  expected.Ref(),
			Identity:  true,
		},
	}, nil
}

// TaggedChecker models "Safe Structural Conformance for Java"
// (Läufer, Baumgartner, Russo — the paper's Section 2.1 comparison):
// structural conformance is available only between types explicitly
// tagged as structurally conformant, and both types must share the
// same declared type hierarchy. Legacy (untagged) types never
// conform, which is precisely the rigidity the paper sets out to
// remove.
type TaggedChecker struct {
	inner *Checker
	tags  map[guid.GUID]bool
}

// NewTagged wraps a strict structural checker with Läufer-style
// opt-in tags.
func NewTagged(resolver typedesc.Resolver) *TaggedChecker {
	return &TaggedChecker{
		inner: New(resolver, WithPolicy(Policy{NoPermutations: true})),
		tags:  make(map[guid.GUID]bool),
	}
}

// Tag marks a type as participating in structural conformance.
func (t *TaggedChecker) Tag(id guid.GUID) { t.tags[id] = true }

// Check implements Relation.
func (t *TaggedChecker) Check(candidate, expected *typedesc.TypeDescription) (*Result, error) {
	if candidate == nil || expected == nil {
		return nil, errors.New("conform: nil type description")
	}
	if !t.tags[candidate.Identity] || !t.tags[expected.Identity] {
		return fail("structural conformance requires both %s and %s to be tagged",
			candidate.Name, expected.Name), nil
	}
	if !sameHierarchy(candidate, expected) {
		return fail("%s and %s are not in the same type hierarchy", candidate.Name, expected.Name), nil
	}
	return t.inner.Check(candidate, expected)
}

// sameHierarchy requires an identical declared superclass (possibly
// none on both sides) — the "based on the Java type hierarchy"
// narrowing the paper criticizes.
func sameHierarchy(a, b *typedesc.TypeDescription) bool {
	switch {
	case a.Super == nil && b.Super == nil:
		return true
	case a.Super == nil || b.Super == nil:
		return false
	default:
		return a.Super.SameIdentity(*b.Super) || a.Super.Name == b.Super.Name
	}
}
