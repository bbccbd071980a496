package conform

import (
	"errors"
	"fmt"
	"reflect"

	"pti/internal/guid"
	"pti/internal/levenshtein"
	"pti/internal/typedesc"
)

// Result is the outcome of a conformance check: whether the candidate
// implicitly structurally conforms to the expected type, the mapping
// realizing the conformance, and — on failure — the first violated
// aspect for diagnostics.
type Result struct {
	Conformant bool
	Reason     string
	Mapping    *Mapping

	// cacheCand/cacheExp remember the identities this result was
	// cached under. They can differ from the Mapping's refs: checking
	// *T against U caches under *T's identity while the mapping
	// (built after pointer dereference) carries T's. PlanFor keys on
	// these so plan memoization engages for pointer-kind pairs too.
	cacheCand, cacheExp guid.GUID
}

// Checker evaluates the implicit structural conformance relation
// T ≤is T' over TypeDescriptions. It is safe for concurrent use.
type Checker struct {
	policy    Policy
	fp        string // policy fingerprint, precomputed for cache keys
	resolver  typedesc.Resolver
	cache     *Cache
	overrides []Override
}

// CheckerOption customizes a Checker.
type CheckerOption func(*Checker)

// WithPolicy sets the name-rule policy (default: Strict, the paper's
// Figure 2 rule).
func WithPolicy(p Policy) CheckerOption {
	return func(c *Checker) { c.policy = p }
}

// WithCache memoizes results keyed by the (candidate, expected,
// policy) triple. The paper motivates this: a type description
// received once need not be re-validated (Section 6.1).
func WithCache(cache *Cache) CheckerOption {
	return func(c *Checker) { c.cache = cache }
}

// WithOverrides pins member correspondences, resolving ambiguity the
// paper leaves to the programmer (Section 4.2).
func WithOverrides(overrides ...Override) CheckerOption {
	return func(c *Checker) { c.overrides = append(c.overrides, overrides...) }
}

// New returns a Checker resolving nested type references through
// resolver. A nil resolver degrades gracefully: nested references are
// compared by name and identity only (the paper's pragmatic fallback
// when a subtype description is not available, Section 5.2).
func New(resolver typedesc.Resolver, opts ...CheckerOption) *Checker {
	c := &Checker{resolver: resolver}
	for _, opt := range opts {
		opt(c)
	}
	c.fp = c.policy.fingerprint()
	return c
}

// Policy returns the checker's policy.
func (c *Checker) Policy() Policy { return c.policy }

// Check reports whether candidate ≤is expected: instances of the
// candidate type can be used safely wherever an instance of the
// expected type is expected (Figure 2, rule (vi)).
func (c *Checker) Check(candidate, expected *typedesc.TypeDescription) (*Result, error) {
	if candidate == nil || expected == nil {
		return nil, errors.New("conform: nil type description")
	}
	if c.cache != nil {
		if r, ok := c.cache.get(candidate.Identity, expected.Identity, c.fp); ok {
			return r, nil
		}
	}
	ctx := &checkContext{
		checker:     c,
		assumptions: make(map[pairKey]bool),
	}
	r := ctx.check(candidate, expected, true)
	if c.cache != nil && !candidate.Identity.IsNil() && !expected.Identity.IsNil() {
		// Stamp the key before publishing the result, then let put
		// return the canonical Result for the key (a concurrent first
		// Check may have won the race), so every caller shares one
		// Mapping pointer and downstream plan reuse engages.
		r.cacheCand, r.cacheExp = candidate.Identity, expected.Identity
		r = c.cache.put(candidate.Identity, expected.Identity, c.fp, r)
	}
	return r, nil
}

// PlanFor compiles (or retrieves) the invocation plan realizing the
// conformance result r against the concrete Go type target — the type
// an Invoker will dispatch on, normally a pointer to the candidate's
// struct type. When the checker has a cache and the result's pair is
// memoized there, the compiled plan is memoized alongside it, so the
// hot path of a repeated reception costs two lock-free map lookups
// and zero compilations.
func (c *Checker) PlanFor(r *Result, target reflect.Type) (*Plan, error) {
	if r == nil || !r.Conformant {
		return nil, ErrNotConformant
	}
	m := r.Mapping
	if c.cache != nil && m != nil {
		// Prefer the identities the result was cached under; the
		// mapping's own refs can be the dereferenced element types.
		cand, exp := r.cacheCand, r.cacheExp
		if cand.IsNil() || exp.IsNil() {
			cand, exp = m.Candidate.Identity, m.Expected.Identity
		}
		p, err, ok := c.cache.planFor(cand, exp, c.fp, target)
		if ok {
			return p, err
		}
	}
	return CompilePlan(target, m)
}

// CheckRefs resolves both references and checks conformance. It is
// the form used by the transport layer, which holds only TypeRefs.
func (c *Checker) CheckRefs(candidate, expected typedesc.TypeRef) (*Result, error) {
	cd, err := c.resolve(candidate)
	if err != nil {
		return nil, fmt.Errorf("conform: resolve candidate %s: %w", candidate, err)
	}
	ed, err := c.resolve(expected)
	if err != nil {
		return nil, fmt.Errorf("conform: resolve expected %s: %w", expected, err)
	}
	return c.Check(cd, ed)
}

func (c *Checker) resolve(ref typedesc.TypeRef) (*typedesc.TypeDescription, error) {
	if c.resolver == nil {
		return nil, typedesc.ErrNotFound
	}
	return c.resolver.Resolve(ref)
}

// pairKey identifies an in-progress (candidate, expected) pair for
// coinductive cycle handling.
type pairKey struct {
	cand string
	exp  string
}

type checkContext struct {
	checker     *Checker
	assumptions map[pairKey]bool
	depth       int
}

// check evaluates rule (vi). topLevel selects whether programmer
// overrides apply and whether the full mapping is built.
func (ctx *checkContext) check(cand, exp *typedesc.TypeDescription, topLevel bool) *Result {
	p := ctx.checker.policy

	// Equivalence: T ≡ T' (same identity).
	if !cand.Identity.IsNil() && cand.Identity == exp.Identity {
		return identityResult(cand, exp, "equivalent (same identity)")
	}
	// Explicit conformance: T ≤e T' (subtyping through declared
	// supertypes and interfaces).
	if ctx.explicitConforms(cand, exp) {
		return identityResult(cand, exp, "explicit conformance (subtype)")
	}

	if ctx.depth >= p.maxDepth() {
		return fail("recursion depth exceeded at %s vs %s", cand.Name, exp.Name)
	}
	ctx.depth++
	defer func() { ctx.depth-- }()

	// A pointer and its pointee are two spellings of the same
	// logical object type in Go; dereference before comparing so
	// *PersonB can stand in for PersonA (the paper's platforms have
	// a single object-reference spelling).
	if cand.Kind == typedesc.KindPointer && exp.Kind != typedesc.KindPointer && cand.Elem != nil {
		if cd, err := ctx.checker.resolve(*cand.Elem); err == nil {
			return ctx.check(cd, exp, topLevel)
		}
	}
	if exp.Kind == typedesc.KindPointer && cand.Kind != typedesc.KindPointer && exp.Elem != nil {
		if ed, err := ctx.checker.resolve(*exp.Elem); err == nil {
			return ctx.check(cand, ed, topLevel)
		}
	}

	// Kind compatibility. An expected interface can be satisfied by
	// a struct (types are "implemented either through interfaces or
	// classes", Section 3.1); otherwise kinds must agree.
	if !kindCompatible(cand.Kind, exp.Kind) {
		return fail("kind mismatch: %s is %s, %s is %s", cand.Name, cand.Kind, exp.Name, exp.Kind)
	}

	// Aspect (i): name.
	if !p.typeNameConforms(exp.Name, cand.Name) {
		return fail("name %q does not conform to %q", cand.Name, exp.Name)
	}

	// Composite shapes: element, key, length.
	if r := ctx.checkComposite(cand, exp); r != nil {
		return r
	}

	mapping := &Mapping{Candidate: cand.Ref(), Expected: exp.Ref()}

	// Aspect (iii): supertypes.
	if r := ctx.checkSupertypes(cand, exp); r != nil {
		return r
	}
	// Aspect (ii): fields.
	if r := ctx.checkFields(cand, exp, mapping, topLevel); r != nil {
		return r
	}
	// Aspect (iv): methods.
	if r := ctx.checkMethods(cand, exp, mapping, topLevel); r != nil {
		return r
	}
	// Aspect (v): constructors.
	if r := ctx.checkCtors(cand, exp, mapping, topLevel); r != nil {
		return r
	}

	return &Result{
		Conformant: true,
		Reason:     "implicit structural conformance",
		Mapping:    mapping,
	}
}

func identityResult(cand, exp *typedesc.TypeDescription, reason string) *Result {
	return &Result{
		Conformant: true,
		Reason:     reason,
		Mapping: &Mapping{
			Candidate: cand.Ref(),
			Expected:  exp.Ref(),
			Identity:  true,
		},
	}
}

func fail(format string, args ...interface{}) *Result {
	return &Result{Conformant: false, Reason: fmt.Sprintf(format, args...)}
}

// explicitConforms walks the candidate's declared supertype chain and
// interface set looking for the expected type — the paper's T ≤e T'.
func (ctx *checkContext) explicitConforms(cand, exp *typedesc.TypeDescription) bool {
	target := exp.Ref()
	seen := make(map[string]bool)
	var walk func(d *typedesc.TypeDescription) bool
	walk = func(d *typedesc.TypeDescription) bool {
		if d == nil || seen[d.Name+"|"+d.Identity.String()] {
			return false
		}
		seen[d.Name+"|"+d.Identity.String()] = true
		for _, iref := range d.Interfaces {
			if iref.SameIdentity(target) || (target.Identity.IsNil() && iref.Name == target.Name) {
				return true
			}
		}
		if d.Super != nil {
			if d.Super.SameIdentity(target) || (target.Identity.IsNil() && d.Super.Name == target.Name) {
				return true
			}
			if sd, err := ctx.checker.resolve(*d.Super); err == nil {
				return walk(sd)
			}
		}
		return false
	}
	return walk(cand)
}

func kindCompatible(cand, exp typedesc.Kind) bool {
	if cand == exp {
		return true
	}
	// A struct (or pointer to struct) may stand in for an expected
	// interface; a pointer may stand in for its pointee and vice
	// versa — Go's two spellings of the same logical object type.
	switch exp {
	case typedesc.KindInterface:
		return cand == typedesc.KindStruct || cand == typedesc.KindPointer
	case typedesc.KindStruct:
		return cand == typedesc.KindPointer
	case typedesc.KindPointer:
		return cand == typedesc.KindStruct || cand == typedesc.KindInterface
	}
	return false
}

// checkComposite validates element/key/length agreement for pointer,
// slice, array and map kinds. Returns nil when the aspect holds.
func (ctx *checkContext) checkComposite(cand, exp *typedesc.TypeDescription) *Result {
	if exp.Kind == typedesc.KindArray && cand.Kind == typedesc.KindArray && cand.Len != exp.Len {
		return fail("array length %d does not conform to %d", cand.Len, exp.Len)
	}
	if exp.Key != nil {
		if cand.Key == nil {
			return fail("%s has no key type, %s expects %s", cand.Name, exp.Name, exp.Key.Name)
		}
		if !ctx.refConforms(*cand.Key, *exp.Key) {
			return fail("key type %s does not conform to %s", cand.Key.Name, exp.Key.Name)
		}
	}
	if exp.Elem != nil && cand.Elem != nil {
		if !ctx.refConforms(*cand.Elem, *exp.Elem) {
			return fail("element type %s does not conform to %s", cand.Elem.Name, exp.Elem.Name)
		}
	}
	return nil
}

// checkSupertypes implements aspect (iii): the candidate's superclass
// and interfaces must conform to the expected type's superclass and
// interfaces respectively.
func (ctx *checkContext) checkSupertypes(cand, exp *typedesc.TypeDescription) *Result {
	if exp.Super != nil {
		if cand.Super == nil {
			return fail("%s has no superclass, %s expects %s", cand.Name, exp.Name, exp.Super.Name)
		}
		if !ctx.refConforms(*cand.Super, *exp.Super) {
			return fail("superclass %s does not conform to %s", cand.Super.Name, exp.Super.Name)
		}
	}
	for _, iexp := range exp.Interfaces {
		matched := false
		for _, icand := range cand.Interfaces {
			if ctx.refConforms(icand, iexp) {
				matched = true
				break
			}
		}
		if !matched {
			return fail("no interface of %s conforms to %s", cand.Name, iexp.Name)
		}
	}
	return nil
}

// checkFields implements aspect (ii): every exported expected field
// must be realized by a distinct candidate field with a conformant
// name and a conformant type.
func (ctx *checkContext) checkFields(cand, exp *typedesc.TypeDescription, mapping *Mapping, topLevel bool) *Result {
	p := ctx.checker.policy
	used := make(map[string]bool, len(cand.Fields))
	for _, fexp := range exp.ExportedFields() {
		pinned, hasPin := ctx.pinFor("field", fexp.Name, topLevel)
		var (
			match     *typedesc.Field
			bestScore int
		)
		for i := range cand.Fields {
			fc := &cand.Fields[i]
			if !fc.Exported || used[fc.Name] {
				continue
			}
			if hasPin {
				if fc.Name != pinned {
					continue
				}
			} else if !p.memberNameConforms(fexp.Name, fc.Name) {
				continue
			}
			if !ctx.refConforms(fc.Type, fexp.Type) {
				continue
			}
			if !p.BestMatch || hasPin {
				match = fc
				break
			}
			score := levenshtein.DistanceFold(fexp.Name, fc.Name)
			if match == nil || score < bestScore {
				match, bestScore = fc, score
			}
		}
		if match == nil {
			return fail("no field of %s conforms to %s.%s (%s)", cand.Name, exp.Name, fexp.Name, fexp.Type.Name)
		}
		used[match.Name] = true
		mapping.Fields = append(mapping.Fields, FieldMapping{Expected: fexp.Name, Candidate: match.Name})
	}
	return nil
}

// checkMethods implements aspect (iv): every expected method must be
// realized by a distinct candidate method — conformant name, a
// permutation of contravariantly conformant parameters, and
// covariantly conformant returns.
func (ctx *checkContext) checkMethods(cand, exp *typedesc.TypeDescription, mapping *Mapping, topLevel bool) *Result {
	used := make(map[string]bool, len(cand.Methods))
	for _, mexp := range exp.Methods {
		mm, ok := ctx.matchMethod(cand, mexp, used, topLevel)
		if !ok {
			return fail("no method of %s conforms to %s.%s", cand.Name, exp.Name, mexp.Signature())
		}
		used[mm.Candidate] = true
		mapping.Methods = append(mapping.Methods, mm)
	}
	return nil
}

func (ctx *checkContext) matchMethod(cand *typedesc.TypeDescription, mexp typedesc.Method, used map[string]bool, topLevel bool) (MethodMapping, bool) {
	p := ctx.checker.policy
	pinned, hasPin := ctx.pinFor("method", mexp.Name, topLevel)
	var (
		best      MethodMapping
		found     bool
		bestScore int
	)
	for _, mc := range cand.Methods {
		if used[mc.Name] {
			continue
		}
		if hasPin {
			if mc.Name != pinned {
				continue
			}
		} else if !p.memberNameConforms(mexp.Name, mc.Name) {
			continue
		}
		if len(mc.Params) != len(mexp.Params) || len(mc.Returns) != len(mexp.Returns) {
			continue
		}
		// Returns: covariant — the candidate's return must be
		// usable as the expected return.
		if !ctx.refsConform(mc.Returns, mexp.Returns) {
			continue
		}
		// Parameters: contravariant with permutations — expected
		// argument i flows into candidate parameter Perm[i].
		perm, ok := ctx.findPermutation(mexp.Params, mc.Params)
		if !ok {
			continue
		}
		mm := MethodMapping{Expected: mexp.Name, Candidate: mc.Name, Perm: perm}
		if !p.BestMatch || hasPin {
			return mm, true
		}
		score := levenshtein.DistanceFold(mexp.Name, mc.Name)
		if !found || score < bestScore {
			best, found, bestScore = mm, true, score
		}
	}
	return best, found
}

// checkCtors implements aspect (v): constructors compare like methods
// without return values.
func (ctx *checkContext) checkCtors(cand, exp *typedesc.TypeDescription, mapping *Mapping, topLevel bool) *Result {
	p := ctx.checker.policy
	if p.IgnoreConstructors {
		return nil
	}
	used := make(map[string]bool, len(cand.Constructors))
	for _, cexp := range exp.Constructors {
		pinned, hasPin := ctx.pinFor("ctor", cexp.Name, topLevel)
		var (
			best      *CtorMapping
			bestScore int
		)
		for _, cc := range cand.Constructors {
			if used[cc.Name] {
				continue
			}
			if hasPin {
				if cc.Name != pinned {
					continue
				}
			} else if !p.memberNameConforms(cexp.Name, cc.Name) {
				continue
			}
			if len(cc.Params) != len(cexp.Params) {
				continue
			}
			perm, ok := ctx.findPermutation(cexp.Params, cc.Params)
			if !ok {
				continue
			}
			cm := CtorMapping{Expected: cexp.Name, Candidate: cc.Name, Perm: perm}
			if !p.BestMatch || hasPin {
				best = &cm
				break
			}
			score := levenshtein.DistanceFold(cexp.Name, cc.Name)
			if best == nil || score < bestScore {
				best, bestScore = &cm, score
			}
		}
		if best == nil {
			return fail("no constructor of %s conforms to %s.%s", cand.Name, exp.Name, cexp.Name)
		}
		used[best.Candidate] = true
		mapping.Ctors = append(mapping.Ctors, *best)
	}
	return nil
}

// findPermutation searches for a bijection σ with expected[i] ≤is
// candidate[σ(i)] for all i — the paper's "permutations of the
// arguments of the methods ... are taken into account". With
// NoPermutations only the identity is tried.
func (ctx *checkContext) findPermutation(expected, candidate []typedesc.TypeRef) ([]int, bool) {
	n := len(expected)
	if n != len(candidate) {
		return nil, false
	}
	if n == 0 {
		return []int{}, true
	}
	// Identity first: it is both the common case and the
	// deterministic preference.
	if ctx.paramsConformIdentity(expected, candidate) {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm, true
	}
	if ctx.checker.policy.NoPermutations {
		return nil, false
	}
	// Backtracking search over the (small) arity.
	perm := make([]int, n)
	usedIdx := make([]bool, n)
	var search func(i int) bool
	search = func(i int) bool {
		if i == n {
			return true
		}
		for j := 0; j < n; j++ {
			if usedIdx[j] {
				continue
			}
			if ctx.refConforms(expected[i], candidate[j]) {
				usedIdx[j] = true
				perm[i] = j
				if search(i + 1) {
					return true
				}
				usedIdx[j] = false
			}
		}
		return false
	}
	if !search(0) {
		return nil, false
	}
	return perm, true
}

func (ctx *checkContext) paramsConformIdentity(expected, candidate []typedesc.TypeRef) bool {
	for i := range expected {
		if !ctx.refConforms(expected[i], candidate[i]) {
			return false
		}
	}
	return true
}

func (ctx *checkContext) refsConform(cand, exp []typedesc.TypeRef) bool {
	if len(cand) != len(exp) {
		return false
	}
	for i := range cand {
		if !ctx.refConforms(cand[i], exp[i]) {
			return false
		}
	}
	return true
}

// refConforms evaluates candRef ≤is expRef on type references,
// resolving descriptions through the repository when available. The
// check is coinductive: a pair already under evaluation is assumed
// conformant, which makes recursive structures (linked nodes, trees)
// terminate exactly as structural-subtyping algorithms do.
func (ctx *checkContext) refConforms(candRef, expRef typedesc.TypeRef) bool {
	p := ctx.checker.policy
	if candRef.SameIdentity(expRef) {
		return true
	}
	// Primitive names compare exactly: int vs uint fuzzy-matching
	// would break the type safety the paper insists the full rule
	// preserves (Section 4.2).
	cp, ep := isPrimitiveName(candRef.Name), isPrimitiveName(expRef.Name)
	if cp || ep {
		return cp && ep && p.exactNameEqual(candRef.Name, expRef.Name)
	}

	key := pairKey{cand: candRef.Identity.String() + candRef.Name, exp: expRef.Identity.String() + expRef.Name}
	if ctx.assumptions[key] {
		return true
	}

	cd, errC := ctx.checker.resolve(candRef)
	ed, errE := ctx.checker.resolve(expRef)
	if errC != nil || errE != nil {
		// Pragmatic fallback (Section 5.2): without a nested
		// description, compare by name.
		return p.typeNameConforms(expRef.Name, candRef.Name)
	}

	ctx.assumptions[key] = true
	defer delete(ctx.assumptions, key)
	r := ctx.check(cd, ed, false)
	return r.Conformant
}

// pinFor returns the pinned candidate member for an expected member,
// if the programmer supplied an override.
func (ctx *checkContext) pinFor(kind, expected string, topLevel bool) (string, bool) {
	if !topLevel {
		return "", false
	}
	for _, o := range ctx.checker.overrides {
		if o.Kind == kind && o.Expected == expected {
			return o.Candidate, true
		}
	}
	return "", false
}

var primitiveNames = map[string]bool{
	"bool": true, "string": true,
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "float32": true, "float64": true,
	"byte": true, "rune": true, "error": true,
}

func isPrimitiveName(name string) bool { return primitiveNames[name] }
