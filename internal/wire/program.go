package wire

import (
	"encoding"
	"encoding/base64"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"

	"pti/internal/bufpool"
)

// This file implements compiled wire codec programs — the
// serialization counterpart of the compiled invocation plans
// (conform.Plan). A Program is built once per Go type and memoized on
// the registry entry; encoding then goes directly from the Go value to
// bytes with no intermediate generic Value tree: type names, field
// names, tag bytes and constant varints are resolved at compile time
// into precomputed byte prefixes, and each field reduces to one
// type-switch-free opcode dispatch.
//
// The compiled path is an optimization, never a semantic fork: a
// Program is only "direct" when its type's whole reachable shape can
// be encoded byte-for-byte identically to the reflective
// FromGo+EncodeBinary/EncodeSOAP pipeline (see compile below for the
// exact eligibility rules); everything else transparently falls back
// to the reflective path, which stays authoritative and is benchmarked
// side by side (like proxy.Invoker.CallReflective).

// progOp is one compiled encode/decode opcode.
type progOp uint8

const (
	opBool progOp = iota
	opInt
	opUint
	opFloat
	opString
	opBytes // []byte or [N]byte
	opStruct
	opList // slice or array of non-byte elements
	opMap
	opText // encoding.TextMarshaler leaf (struct/array kind)
	opPtr  // single-level pointer (decode-only: encode needs alias tracking)
)

// progNode is the compiled form of one type position.
type progNode struct {
	op  progOp
	typ reflect.Type

	// Binary: constant stream prefix emitted before the runtime-varying
	// part. For opStruct this is the whole object header
	// (tag, type name, id=0, field count); for opList/opMap it is the
	// tag plus element/key type names.
	binPrefix []byte

	// SOAP: the constant attribute run for this node's opening element
	// (` type="long"`, ` type="Person"`, ` type="list" elemType="int"`,
	// ...), shared by every element name this node appears under.
	soapAttr string

	// opStruct
	fields  []progField
	nameTab map[string]int // field name -> fields index (decode)
	// lastTab caches the most recently resolved materializer table for
	// this node, so the steady-state decode of a mapped source type
	// neither asks the resolver again nor allocates the source name
	// (it arrives as raw stream bytes). A node that sees several
	// source types or versions in turn rebuilds its table per switch.
	lastTab atomic.Pointer[resolvedTab]

	// opList / opMap / opPtr
	elem *progNode
	key  *progNode

	// opBytes
	isArray  bool
	arrayLen int

	// opList over an array type
	isArrayList bool
}

// progField is one compiled struct field.
type progField struct {
	name string
	idx  int // reflect field index (top level only; FromGo never promotes)
	node *progNode

	// binName is the field's binary header: varint(len(name)) + name.
	binName []byte
	// soapOpen/soapClose are the field's complete SOAP element
	// delimiters, e.g. `<Age type="long">` and `</Age>`.
	soapOpen  string
	soapClose string
}

// Program is a per-type compiled encode/decode program. Programs are
// immutable after compilation and safe for concurrent use; the one
// mutable part is each struct node's hot materializer-table entry
// (progNode.lastTab), memoized per (source type name, resolver
// fingerprint).
type Program struct {
	// Type is the Go type the program encodes (pointers stripped).
	Type reflect.Type

	// rootName is the wire name CompileProgramNamed stamps on a root
	// object of Type when it differs from the Go spelling; "" keeps
	// the Go spelling.
	rootName     string
	root         *progNode
	direct       bool
	decodeDirect bool
}

// resolvedTab is one memoized materializer table together with the
// (source name, resolver fingerprint) pair it was resolved for; see
// progNode.lastTab.
type resolvedTab struct {
	src string
	fp  string
	tab map[string]int
}

// CompileProgram builds the compiled codec program for t (or the type
// of t's pointee). Compilation never fails for types the generic model
// supports at all; types whose shape the direct path cannot reproduce
// byte-for-byte (pointers, interfaces, recursion through maps with
// non-primitive keys, ...) yield a non-direct program whose
// Encode/Decode entry points report !ok so callers fall back to the
// reflective path.
func CompileProgram(t reflect.Type) (*Program, error) {
	if t == nil {
		return nil, fmt.Errorf("wire: CompileProgram(nil)")
	}
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	p := &Program{Type: t}
	c := &progCompiler{nodes: make(map[reflect.Type]*progNode)}
	p.root = c.compile(t)
	p.direct = p.root != nil && !c.encFailed
	p.decodeDirect = p.root != nil
	return p, nil
}

// CompileProgramNamed compiles like CompileProgram but stamps rootName
// as the wire type name of the program's root struct. Peers that
// register a Go type under a logical chain name publish payloads whose
// self-describing root matches the envelope's type reference — the
// registered name — rather than the local Go spelling, so receivers
// resolve the payload through the same ref the envelope pins. The
// name holds on every encode path: the compiled encoders bake it into
// the root node, and EncodeCompiled's reflective fallback stamps it on
// the root object of a value of the program's type.
func CompileProgramNamed(t reflect.Type, rootName string) (*Program, error) {
	p, err := CompileProgram(t)
	if err != nil || rootName == "" || rootName == canonicalTypeName(p.Type) {
		return p, err
	}
	p.rootName = rootName
	if r := p.root; r != nil && r.op == opStruct {
		// A node of the root's own: values a recursive type nests keep
		// the Go spelling, as the reflective encoder writes them.
		p.root = &progNode{op: opStruct, typ: r.typ, fields: r.fields, nameTab: r.nameTab,
			soapAttr: soapAttrFor(rootName), binPrefix: structBinPrefixNamed(rootName, len(r.fields))}
	}
	return p, nil
}

// stampRoot renames gv's root object, the reflective encoding of v,
// to the program's wire name when v's type, pointers stripped, is the
// program's type.
func (p *Program) stampRoot(gv Value, v interface{}) {
	if p == nil || p.rootName == "" {
		return
	}
	obj, ok := gv.(*Object)
	if !ok {
		return
	}
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if t == p.Type {
		obj.TypeName = p.rootName
	}
}

// Direct reports whether the program has a compiled encode fast path;
// a non-direct program exists only to make the fallback decision once
// per type instead of once per call.
func (p *Program) Direct() bool { return p.direct }

// DecodeDirect reports whether the program has a compiled decode fast
// path. Decode eligibility is wider than encode eligibility: pointer
// fields kill the direct encoder (FromGo's alias tracking can turn
// them into id/ref pairs), but the decoder materializes them with the
// same two-pass ref-id assignment the generic path uses — allocate and
// register the pointer first, fill its fields second — so aliased and
// even cyclic streams decode directly.
func (p *Program) DecodeDirect() bool { return p.decodeDirect }

type progCompiler struct {
	nodes map[reflect.Type]*progNode
	// encFailed poisons only the encode path (Program.direct);
	// decFailed aborts compilation entirely (no node graph at all).
	encFailed bool
	decFailed bool
}

// compile returns the node for t, or marks the compiler failed when
// the type's encoding cannot be reproduced directly. The node table
// memoizes in-progress nodes so recursive shapes (e.g. `type T struct{
// Kids []T }`, or linked lists through pointers) compile to cyclic
// node graphs. A nil return means even the decode path is off the
// table (decFailed); shapes that only the encoder cannot reproduce —
// pointers, maps with composite keys — set encFailed but still yield a
// complete node graph for the compiled decoder.
func (c *progCompiler) compile(t reflect.Type) *progNode {
	if n, ok := c.nodes[t]; ok {
		return n
	}
	n := &progNode{typ: t}
	c.nodes[t] = n

	// FromGo consults encoding.TextMarshaler before the kind switch,
	// but only for struct and array kinds (see marshalText).
	if t.Kind() == reflect.Struct || t.Kind() == reflect.Array {
		if t.Implements(textMarshalerType) || reflect.PtrTo(t).Implements(textMarshalerType) {
			n.op = opText
			n.soapAttr = soapAttrFor(soapString)
			return n
		}
	}

	switch t.Kind() {
	case reflect.Bool:
		n.op = opBool
		n.soapAttr = soapAttrFor(soapBoolean)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n.op = opInt
		n.soapAttr = soapAttrFor(soapLong)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		n.op = opUint
		n.soapAttr = soapAttrFor(soapULong)
	case reflect.Float32, reflect.Float64:
		n.op = opFloat
		n.soapAttr = soapAttrFor(soapDouble)
	case reflect.String:
		n.op = opString
		n.soapAttr = soapAttrFor(soapString)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			n.op = opBytes
			n.soapAttr = soapAttrFor(soapBase64)
			break
		}
		n.op = opList
		n.elem = c.compile(t.Elem())
		n.binPrefix = listBinPrefix(t.Elem())
		n.soapAttr = soapListAttr(t.Elem())
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			n.op = opBytes
			n.isArray = true
			n.arrayLen = t.Len()
			n.soapAttr = soapAttrFor(soapBase64)
			break
		}
		n.op = opList
		n.isArrayList = true
		n.arrayLen = t.Len()
		n.elem = c.compile(t.Elem())
		n.binPrefix = listBinPrefix(t.Elem())
		n.soapAttr = soapListAttr(t.Elem())
	case reflect.Ptr:
		// Encoding pointers needs FromGo's alias tracking (a pointer
		// seen twice becomes an id/ref pair); decoding does not — the
		// materializer allocates per occurrence and resolves refs
		// through the decoder's object table. Nested pointers stay
		// reflective on both sides.
		if t.Elem().Kind() == reflect.Ptr {
			c.decFailed = true
			return nil
		}
		c.encFailed = true
		n.op = opPtr
		n.elem = c.compile(t.Elem())
		if c.decFailed {
			return nil
		}
	case reflect.Map:
		if !mapKeySortable(t.Key()) {
			// The reflective path orders entries by fmt.Sprint of the
			// *generic* key; reproducing that for composite keys is not
			// worth the fidelity risk.
			c.encFailed = true
		}
		n.op = opMap
		n.key = c.compile(t.Key())
		n.elem = c.compile(t.Elem())
		n.binPrefix = mapBinPrefix(t.Key(), t.Elem())
		n.soapAttr = soapMapAttr(t.Key(), t.Elem())
	case reflect.Struct:
		n.op = opStruct
		n.soapAttr = soapAttrFor(canonicalTypeName(t))
		n.nameTab = make(map[string]int)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			child := c.compile(f.Type)
			if c.decFailed {
				return nil
			}
			pf := progField{
				name:      f.Name,
				idx:       i,
				node:      child,
				binName:   appendUvarintBytes(nil, uint64(len(f.Name))),
				soapOpen:  "<" + f.Name + child.soapAttr + ">",
				soapClose: "</" + f.Name + ">",
			}
			pf.binName = append(pf.binName, f.Name...)
			n.nameTab[f.Name] = len(n.fields)
			n.fields = append(n.fields, pf)
		}
		n.binPrefix = structBinPrefix(t, len(n.fields))
	default:
		// Interfaces, funcs, channels, complex numbers: dynamic types
		// or unsupported values — reflective territory on both sides.
		c.decFailed = true
		return nil
	}
	if c.decFailed {
		return nil
	}
	return n
}

// mapKeySortable reports whether the key kind's generic form has a
// fmt.Sprint rendering we reproduce exactly for entry ordering.
func mapKeySortable(t reflect.Type) bool {
	if t.Kind() == reflect.Struct || t.Kind() == reflect.Array {
		// Text-marshaled keys render as their text.
		if t.Implements(textMarshalerType) || reflect.PtrTo(t).Implements(textMarshalerType) {
			return true
		}
		return false
	}
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64,
		reflect.String:
		return true
	}
	return false
}

// --- compile-time byte prefixes --------------------------------------

func appendUvarintBytes(dst []byte, u uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], u)
	return append(dst, b[:n]...)
}

func appendStringBytes(dst []byte, s string) []byte {
	dst = appendUvarintBytes(dst, uint64(len(s)))
	return append(dst, s...)
}

// structBinPrefix is the constant binary object header: direct types
// never alias, so the object id is always zero and the field count is
// fixed at compile time.
func structBinPrefix(t reflect.Type, nfields int) []byte {
	return structBinPrefixNamed(canonicalTypeName(t), nfields)
}

func structBinPrefixNamed(name string, nfields int) []byte {
	dst := []byte{tagObject}
	dst = appendStringBytes(dst, name)
	dst = appendUvarintBytes(dst, 0) // id
	dst = appendUvarintBytes(dst, uint64(nfields))
	return dst
}

func listBinPrefix(elem reflect.Type) []byte {
	dst := []byte{tagList}
	return appendStringBytes(dst, canonicalTypeName(elem))
}

func mapBinPrefix(key, elem reflect.Type) []byte {
	dst := []byte{tagMap}
	dst = appendStringBytes(dst, canonicalTypeName(key))
	return appendStringBytes(dst, canonicalTypeName(elem))
}

// soapAttrFor renders the constant ` type="..."` attribute run exactly
// as the reflective writer's fmt.Fprintf(`<%s type=%q...`) would.
func soapAttrFor(typ string) string {
	return " type=" + strconv.Quote(typ)
}

func soapListAttr(elem reflect.Type) string {
	return " type=" + strconv.Quote(soapList) + " elemType=" + strconv.Quote(canonicalTypeName(elem))
}

func soapMapAttr(key, elem reflect.Type) string {
	return " type=" + strconv.Quote(soapMap) +
		" keyType=" + strconv.Quote(canonicalTypeName(key)) +
		" elemType=" + strconv.Quote(canonicalTypeName(elem))
}

// --- binary encoding --------------------------------------------------

// AppendBinary appends the binary encoding of v (magic byte included)
// to dst. ok is false when the program has no direct path or v is not
// of the program's type; the caller then uses the reflective encoder.
func (p *Program) AppendBinary(dst []byte, v interface{}) (out []byte, ok bool, err error) {
	if !p.direct {
		return dst, false, nil
	}
	rv, ok := p.valueOf(v)
	if !ok {
		return dst, false, nil
	}
	dst = append(dst, binMagic)
	if !rv.IsValid() {
		return append(dst, tagNil), true, nil
	}
	dst, err = p.root.encBin(dst, rv)
	return dst, true, err
}

// valueOf normalizes v against the program's type: the top level
// accepts both T and *T (FromGo encodes a single pointer-to-struct
// occurrence identically to the struct itself). An invalid
// reflect.Value means "encode nil".
func (p *Program) valueOf(v interface{}) (reflect.Value, bool) {
	if v == nil {
		return reflect.Value{}, true
	}
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Ptr {
		if rv.IsNil() {
			return reflect.Value{}, true
		}
		rv = rv.Elem()
	}
	if rv.Type() != p.Type {
		return reflect.Value{}, false
	}
	return rv, true
}

func (n *progNode) encBin(dst []byte, rv reflect.Value) ([]byte, error) {
	switch n.op {
	case opBool:
		if rv.Bool() {
			return append(dst, tagBool, 1), nil
		}
		return append(dst, tagBool, 0), nil
	case opInt:
		dst = append(dst, tagInt)
		return appendUvarintBytes(dst, zigzag(rv.Int())), nil
	case opUint:
		dst = append(dst, tagUint)
		return appendUvarintBytes(dst, rv.Uint()), nil
	case opFloat:
		dst = append(dst, tagFloat)
		bits := math.Float64bits(rv.Float())
		return append(dst,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits)), nil
	case opString:
		dst = append(dst, tagString)
		return appendStringBytes(dst, rv.String()), nil
	case opBytes:
		if !n.isArray && rv.IsNil() {
			return append(dst, tagNil), nil
		}
		l := rv.Len()
		dst = append(dst, tagBytes)
		dst = appendUvarintBytes(dst, uint64(l))
		if n.isArray {
			if rv.CanAddr() {
				return append(dst, rv.Slice(0, l).Bytes()...), nil
			}
			for i := 0; i < l; i++ {
				dst = append(dst, byte(rv.Index(i).Uint()))
			}
			return dst, nil
		}
		return append(dst, rv.Bytes()...), nil
	case opText:
		text, err := marshalTextOf(rv)
		if err != nil {
			return dst, err
		}
		dst = append(dst, tagString)
		return appendStringBytes(dst, text), nil
	case opStruct:
		dst = append(dst, n.binPrefix...)
		var err error
		for i := range n.fields {
			f := &n.fields[i]
			dst = append(dst, f.binName...)
			if dst, err = f.node.encBin(dst, rv.Field(f.idx)); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case opList:
		if !n.isArrayList && rv.IsNil() {
			return append(dst, tagNil), nil
		}
		l := rv.Len()
		dst = append(dst, n.binPrefix...)
		dst = appendUvarintBytes(dst, uint64(l))
		var err error
		for i := 0; i < l; i++ {
			if dst, err = n.elem.encBin(dst, rv.Index(i)); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case opMap:
		if rv.IsNil() {
			return append(dst, tagNil), nil
		}
		entries, err := n.sortedEntries(rv)
		if err != nil {
			return dst, err
		}
		dst = append(dst, n.binPrefix...)
		dst = appendUvarintBytes(dst, uint64(len(entries)))
		for _, e := range entries {
			if dst, err = n.key.encBin(dst, e.k); err != nil {
				return dst, err
			}
			if dst, err = n.elem.encBin(dst, e.v); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	return dst, fmt.Errorf("wire: unsupported value: compiled op %d", n.op)
}

type mapEntryKV struct {
	sortKey string
	k, v    reflect.Value
}

// sortedEntries orders map entries exactly as the reflective path
// does: by fmt.Sprint of the *generic* key value (so int keys sort
// lexically on their decimal form, not numerically).
func (n *progNode) sortedEntries(rv reflect.Value) ([]mapEntryKV, error) {
	entries := make([]mapEntryKV, 0, rv.Len())
	iter := rv.MapRange()
	for iter.Next() {
		k := iter.Key()
		sk, err := n.key.sortKeyOf(k)
		if err != nil {
			return nil, err
		}
		entries = append(entries, mapEntryKV{sortKey: sk, k: k, v: iter.Value()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].sortKey < entries[j].sortKey })
	return entries, nil
}

func (n *progNode) sortKeyOf(rv reflect.Value) (string, error) {
	switch n.op {
	case opBool:
		if rv.Bool() {
			return "true", nil
		}
		return "false", nil
	case opInt:
		return strconv.FormatInt(rv.Int(), 10), nil
	case opUint:
		return strconv.FormatUint(rv.Uint(), 10), nil
	case opFloat:
		// fmt.Sprint(float64) == strconv shortest 'g'.
		return strconv.FormatFloat(rv.Float(), 'g', -1, 64), nil
	case opString:
		return rv.String(), nil
	case opText:
		return marshalTextOf(rv)
	}
	return "", fmt.Errorf("wire: unsupported value: unsortable map key %s", n.typ)
}

// marshalTextOf mirrors marshalText for a value already known to opt
// in to encoding.TextMarshaler.
func marshalTextOf(rv reflect.Value) (string, error) {
	var m encoding.TextMarshaler
	t := rv.Type()
	switch {
	case t.Implements(textMarshalerType):
		m = rv.Interface().(encoding.TextMarshaler)
	case rv.CanAddr():
		m = rv.Addr().Interface().(encoding.TextMarshaler)
	default:
		pv := reflect.New(t)
		pv.Elem().Set(rv)
		m = pv.Interface().(encoding.TextMarshaler)
	}
	text, err := m.MarshalText()
	if err != nil {
		return "", fmt.Errorf("wire: marshal text for %s: %w", t, err)
	}
	return string(text), nil
}

// --- SOAP encoding ----------------------------------------------------

// soapEnvelopeOpen/Close are the constant document frame around the
// payload element (matching EncodeSOAP byte-for-byte).
const (
	soapEnvelopeOpen  = "<Envelope><Body>"
	soapEnvelopeClose = "</Body></Envelope>"
)

// AppendSOAP appends the SOAP-XML encoding of v (XML header and
// envelope included) to dst, with the same fallback contract as
// AppendBinary.
func (p *Program) AppendSOAP(dst []byte, v interface{}) (out []byte, ok bool, err error) {
	if !p.direct {
		return dst, false, nil
	}
	rv, ok := p.valueOf(v)
	if !ok {
		return dst, false, nil
	}
	dst = append(dst, xmlHeaderBytes...)
	dst = append(dst, soapEnvelopeOpen...)
	if !rv.IsValid() {
		dst = append(dst, `<value nil="true"/>`...)
		return append(dst, soapEnvelopeClose...), true, nil
	}
	dst, err = p.root.encSOAP(dst, "value", rv)
	if err != nil {
		return dst, true, err
	}
	return append(dst, soapEnvelopeClose...), true, nil
}

var xmlHeaderBytes = []byte("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")

// encSOAP writes the value under the given element name. elemOpen and
// elemClose, when non-empty, are the precomputed field delimiters
// (used instead of rebuilding them from elem + soapAttr).
func (n *progNode) encSOAP(dst []byte, elem string, rv reflect.Value) ([]byte, error) {
	return n.encSOAPDelim(dst, elem, "", "", rv)
}

func (n *progNode) encSOAPDelim(dst []byte, elem, open, close_ string, rv reflect.Value) ([]byte, error) {
	writeOpen := func(dst []byte) []byte {
		if open != "" {
			return append(dst, open...)
		}
		dst = append(dst, '<')
		dst = append(dst, elem...)
		dst = append(dst, n.soapAttr...)
		return append(dst, '>')
	}
	writeClose := func(dst []byte) []byte {
		if close_ != "" {
			return append(dst, close_...)
		}
		dst = append(dst, '<', '/')
		dst = append(dst, elem...)
		return append(dst, '>')
	}
	writeNil := func(dst []byte) []byte {
		dst = append(dst, '<')
		dst = append(dst, elem...)
		return append(dst, ` nil="true"/>`...)
	}

	switch n.op {
	case opBool:
		dst = writeOpen(dst)
		if rv.Bool() {
			dst = append(dst, "true"...)
		} else {
			dst = append(dst, "false"...)
		}
		return writeClose(dst), nil
	case opInt:
		dst = writeOpen(dst)
		dst = strconv.AppendInt(dst, rv.Int(), 10)
		return writeClose(dst), nil
	case opUint:
		dst = writeOpen(dst)
		dst = strconv.AppendUint(dst, rv.Uint(), 10)
		return writeClose(dst), nil
	case opFloat:
		dst = writeOpen(dst)
		dst = strconv.AppendFloat(dst, rv.Float(), 'g', -1, 64)
		return writeClose(dst), nil
	case opString:
		dst = writeOpen(dst)
		dst = soapAppendEscaped(dst, rv.String())
		return writeClose(dst), nil
	case opText:
		text, err := marshalTextOf(rv)
		if err != nil {
			return dst, err
		}
		dst = writeOpen(dst)
		dst = soapAppendEscaped(dst, text)
		return writeClose(dst), nil
	case opBytes:
		if !n.isArray && rv.IsNil() {
			return writeNil(dst), nil
		}
		dst = writeOpen(dst)
		dst = appendBase64(dst, rv, n.isArray)
		return writeClose(dst), nil
	case opStruct:
		dst = writeOpen(dst)
		var err error
		for i := range n.fields {
			f := &n.fields[i]
			if dst, err = f.node.encSOAPDelim(dst, f.name, f.soapOpen, f.soapClose, rv.Field(f.idx)); err != nil {
				return dst, err
			}
		}
		return writeClose(dst), nil
	case opList:
		if !n.isArrayList && rv.IsNil() {
			return writeNil(dst), nil
		}
		dst = writeOpen(dst)
		var err error
		for i := 0; i < rv.Len(); i++ {
			if dst, err = n.elem.encSOAP(dst, "item", rv.Index(i)); err != nil {
				return dst, err
			}
		}
		return writeClose(dst), nil
	case opMap:
		if rv.IsNil() {
			return writeNil(dst), nil
		}
		entries, err := n.sortedEntries(rv)
		if err != nil {
			return dst, err
		}
		dst = writeOpen(dst)
		for _, e := range entries {
			dst = append(dst, "<entry>"...)
			if dst, err = n.key.encSOAP(dst, "key", e.k); err != nil {
				return dst, err
			}
			if dst, err = n.elem.encSOAP(dst, "val", e.v); err != nil {
				return dst, err
			}
			dst = append(dst, "</entry>"...)
		}
		return writeClose(dst), nil
	}
	return dst, fmt.Errorf("wire: unsupported value: compiled op %d", n.op)
}

// soapSafe marks ASCII bytes xml.EscapeText passes through verbatim.
var soapSafe = func() (t [128]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range []byte{'&', '<', '>', '\'', '"'} {
		t[c] = false
	}
	return
}()

// soapAppendEscaped appends s escaped exactly as xml.EscapeText would
// write it. The common all-safe-ASCII case appends the raw bytes; any
// byte needing attention routes the whole string through
// xml.EscapeText so escaping and invalid-UTF-8 replacement stay
// byte-identical to the reflective writer.
func soapAppendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || !soapSafe[c] {
			buf := bufpool.Get()
			_ = xml.EscapeText(buf, []byte(s))
			dst = append(dst, buf.B...)
			bufpool.Put(buf)
			return dst
		}
	}
	return append(dst, s...)
}

// appendBase64 appends the std-base64 rendering of a byte slice or
// byte array value.
func appendBase64(dst []byte, rv reflect.Value, isArray bool) []byte {
	if !isArray {
		return base64.StdEncoding.AppendEncode(dst, rv.Bytes())
	}
	if rv.CanAddr() {
		return base64.StdEncoding.AppendEncode(dst, rv.Slice(0, rv.Len()).Bytes())
	}
	src := make([]byte, rv.Len())
	reflect.Copy(reflect.ValueOf(src), rv)
	return base64.StdEncoding.AppendEncode(dst, src)
}
