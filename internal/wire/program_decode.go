package wire

import (
	"encoding"
	"math"
	"reflect"
)

// Compiled binary decoding: the stream is parsed directly into a Go
// value of the program's type, with no intermediate generic tree. The
// self-describing field names in the stream are resolved through a
// precompiled materializer table (source field name -> field index),
// so mapped types decode without per-field name resolution: the
// identity table is the program's own name table, and mapped tables —
// built through a FieldResolver exactly as the reflective path would
// resolve each field — are memoized per (source type name, resolver
// fingerprint).
//
// The decoder is strictly optimistic: any shape it cannot reproduce
// with certainty (cross-kind coercions the generic materializer would
// attempt, truncated streams, refs to objects it did not register)
// makes it bail out with ok=false, and the caller re-runs the
// reflective decoder, which remains the authority for both values and
// errors.
//
// Pointer shapes decode directly via two-pass ref-id assignment,
// mirroring the generic materializer's order exactly: at a pointer
// position the destination pointer is allocated and registered in the
// decoder's object table FIRST (pass one: id assignment), and its
// fields are filled in SECOND (pass two), so backward references —
// including references into the object's own subtree, i.e. cycles —
// resolve to the same allocation, preserving aliasing.

// decodeBinary materializes a binary stream directly into a value of
// type t (the program's type, or a pointer to it). resolve translates
// expected field names to source names exactly as in ToGo; fp is a
// caller-stable fingerprint identifying the resolver's behaviour so
// materializer tables can be memoized ("" disables memoization; use
// it for resolvers whose behaviour may still change). A non-empty
// wantTop admits only a top-level object of that source type name
// (the Codec.DecodeObjectFast gate). ok=false means the stream or
// target is outside the compiled path and the caller must fall back to
// the reflective decoder.
func (p *Program) decodeBinary(data []byte, t reflect.Type, resolve FieldResolver, fp, wantTop string) (interface{}, bool) {
	isPtr, ok := p.decodeTarget(t, wantTop)
	if !ok {
		return nil, false
	}
	r := byteReader{data: data}
	magic, ok := r.readByte()
	if !ok || magic != binMagic {
		return nil, false
	}
	if r.pos < len(r.data) && r.data[r.pos] == tagNil {
		// Top-level nil: the generic path materializes the zero of t
		// itself — a nil pointer for a *T target, not a pointer to a
		// zero T. A caller demanding a named object gets a bail-out
		// instead: its reflective pipeline owns the error.
		if wantTop != "" || r.len() != 1 {
			return nil, false
		}
		return reflect.Zero(t).Interface(), true
	}
	out := reflect.New(p.Type)
	d := progDecoder{resolve: resolve, fp: fp, wantTop: wantTop}
	// The generic materializer registers ids only at pointer positions;
	// a *T target makes the top level one (ToGo's out.Kind() == Ptr).
	var selfPtr reflect.Value
	if isPtr {
		selfPtr = out
	}
	if !d.decodeSelf(&r, p.root, selfPtr, out.Elem(), 0) {
		return nil, false
	}
	if r.len() != 0 {
		// The reflective decoder rejects trailing bytes; let it.
		return nil, false
	}
	if isPtr {
		return out.Interface(), true
	}
	return out.Elem().Interface(), true
}

// decodeTarget reports whether the compiled decoders serve target t
// and wantTop, and whether t is a pointer to the program's type.
func (p *Program) decodeTarget(t reflect.Type, wantTop string) (isPtr, ok bool) {
	if !p.decodeDirect || wantTop != "" && p.root.op != opStruct {
		return false, false
	}
	if t.Kind() == reflect.Ptr {
		return true, t.Elem() == p.Type
	}
	return false, t == p.Type
}

type progDecoder struct {
	resolve FieldResolver
	fp      string

	// wantTop, when set, requires the top-level value to be an object
	// whose stream-embedded source type name matches it exactly.
	wantTop string

	// refs is the object table of the two-pass ref-id assignment:
	// stream id -> the pointer registered for it. Allocated lazily, so
	// id-free streams (the steady state) never pay for it.
	refs map[uint64]reflect.Value
}

// register records the pointer allocated for a stream id, mirroring
// the generic materializer exactly: registration happens before the
// object's fields are materialized, and a duplicate id overwrites the
// earlier entry (later refs then resolve to the later object).
func (d *progDecoder) register(id uint64, p reflect.Value) {
	if d.refs == nil {
		d.refs = make(map[uint64]reflect.Value, 4)
	}
	d.refs[id] = p
}

// byteReader is a minimal, allocation-free cursor over the stream.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) len() int { return len(r.data) - r.pos }

func (r *byteReader) readByte() (byte, bool) {
	if r.pos >= len(r.data) {
		return 0, false
	}
	b := r.data[r.pos]
	r.pos++
	return b, true
}

func (r *byteReader) readUvarint() (uint64, bool) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, ok := r.readByte()
		if !ok || i == 10 {
			return 0, false
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, false
			}
			return x | uint64(b)<<s, true
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// readLen reads a varint length bounded by the remaining bytes (the
// same guard the reflective readLen applies).
func (r *byteReader) readLen() (int, bool) {
	u, ok := r.readUvarint()
	if !ok || u > uint64(r.len()) {
		return 0, false
	}
	return int(u), true
}

func (r *byteReader) readString() (string, bool) {
	n, ok := r.readLen()
	if !ok {
		return "", false
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s, true
}

// readStrBytes reads a length-prefixed string without copying it out
// of the stream; the slice is only valid until the stream buffer is
// recycled, so callers must not retain it.
func (r *byteReader) readStrBytes() ([]byte, bool) {
	n, ok := r.readLen()
	if !ok {
		return nil, false
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, true
}

func (r *byteReader) readBytes(n int) ([]byte, bool) {
	if n < 0 || n > r.len() {
		return nil, false
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, true
}

// decode parses one value into out (which is addressable and zeroed).
// A false return aborts the whole compiled decode.
func (d *progDecoder) decode(r *byteReader, n *progNode, out reflect.Value, depth int) bool {
	return d.decodeSelf(r, n, reflect.Value{}, out, depth)
}

// decodeSelf is decode with the pointer registered for this position
// (valid only when the caller sits at a pointer level, i.e. opPtr or a
// *T top-level target).
func (d *progDecoder) decodeSelf(r *byteReader, n *progNode, selfPtr, out reflect.Value, depth int) bool {
	if depth > maxBinDepth {
		return false
	}
	tag, ok := r.readByte()
	if !ok {
		return false
	}
	return d.decodeTag(r, n, tag, selfPtr, out, depth)
}

// decodeTag decodes one value whose leading tag byte has already been
// consumed.
func (d *progDecoder) decodeTag(r *byteReader, n *progNode, tag byte, selfPtr, out reflect.Value, depth int) bool {
	if tag == tagNil {
		// Generic materialization leaves the zero value in place.
		return true
	}
	switch n.op {
	case opBool:
		if tag != tagBool {
			return false
		}
		b, ok := r.readByte()
		if !ok {
			return false
		}
		out.SetBool(b != 0)
		return true
	case opInt:
		i, ok := d.readAsInt64(r, tag)
		if !ok || out.OverflowInt(i) {
			return false
		}
		out.SetInt(i)
		return true
	case opUint:
		u, ok := d.readAsUint64(r, tag)
		if !ok || out.OverflowUint(u) {
			return false
		}
		out.SetUint(u)
		return true
	case opFloat:
		f, ok := d.readAsFloat64(r, tag)
		if !ok {
			return false
		}
		out.SetFloat(f)
		return true
	case opString:
		if tag != tagString {
			return false
		}
		s, ok := r.readString()
		if !ok {
			return false
		}
		out.SetString(s)
		return true
	case opText:
		if tag != tagString {
			return false
		}
		s, ok := r.readStrBytes()
		if !ok {
			return false
		}
		return unmarshalTextInto(out, s)
	case opBytes:
		if tag != tagBytes {
			return false
		}
		l, ok := r.readLen()
		if !ok {
			return false
		}
		b, ok := r.readBytes(l)
		if !ok {
			return false
		}
		if n.isArray {
			if l != n.arrayLen {
				return false
			}
			reflect.Copy(out, reflect.ValueOf(b))
			return true
		}
		buf := make([]byte, l)
		copy(buf, b)
		out.SetBytes(buf)
		return true
	case opStruct:
		return d.decodeStruct(r, n, tag, selfPtr, out, depth)
	case opPtr:
		if tag == tagRef {
			// Backward reference: must resolve to a pointer this decode
			// registered, of exactly the target's type (the generic
			// path's assignability check reduces to identity for
			// concrete pointer types we register; anything else bails
			// to the reflective authority).
			id, ok := r.readUvarint()
			if !ok || id == 0 {
				return false
			}
			prev, found := d.refs[id]
			if !found || prev.Type() != out.Type() {
				return false
			}
			out.Set(prev)
			return true
		}
		p := reflect.New(n.typ.Elem())
		// Pass one of the two-pass ref-id assignment happens inside
		// decodeStruct (the id is read there); the same stream depth is
		// kept because the pointer level does not exist in the stream.
		if !d.decodeTag(r, n.elem, tag, p, p.Elem(), depth) {
			return false
		}
		out.Set(p)
		return true
	case opList:
		if tag != tagList {
			return false
		}
		if _, ok := r.readString(); !ok { // elem type name (informative)
			return false
		}
		l, ok := r.readLen()
		if !ok {
			return false
		}
		if n.isArrayList {
			if l != n.arrayLen {
				return false
			}
			for i := 0; i < l; i++ {
				if !d.decode(r, n.elem, out.Index(i), depth+1) {
					return false
				}
			}
			return true
		}
		s := reflect.MakeSlice(out.Type(), l, l)
		for i := 0; i < l; i++ {
			if !d.decode(r, n.elem, s.Index(i), depth+1) {
				return false
			}
		}
		out.Set(s)
		return true
	case opMap:
		if tag != tagMap {
			return false
		}
		if _, ok := r.readString(); !ok {
			return false
		}
		if _, ok := r.readString(); !ok {
			return false
		}
		l, ok := r.readLen()
		if !ok {
			return false
		}
		mv := reflect.MakeMapWithSize(out.Type(), l)
		kt, vt := out.Type().Key(), out.Type().Elem()
		for i := 0; i < l; i++ {
			k := reflect.New(kt).Elem()
			if !d.decode(r, n.key, k, depth+1) {
				return false
			}
			v := reflect.New(vt).Elem()
			if !d.decode(r, n.elem, v, depth+1) {
				return false
			}
			mv.SetMapIndex(k, v)
		}
		out.Set(mv)
		return true
	}
	return false
}

func (d *progDecoder) decodeStruct(r *byteReader, n *progNode, tag byte, selfPtr, out reflect.Value, depth int) bool {
	if tag != tagObject {
		return false
	}
	srcName, ok := r.readStrBytes()
	if !ok {
		return false
	}
	if depth == 0 && d.wantTop != "" && string(srcName) != d.wantTop {
		return false
	}
	id, ok := r.readUvarint()
	if !ok {
		return false
	}
	if id != 0 && selfPtr.IsValid() {
		// Pass one: register the already-allocated pointer under the
		// stream id before any field is filled, exactly as the generic
		// materializer does (which is what makes cycles resolvable).
		// At non-pointer positions the generic path ignores the id
		// without registering it, and so do we.
		d.register(id, selfPtr)
	}
	nfields, ok := r.readLen()
	if !ok {
		return false
	}
	if len(n.fields) > 64 {
		// The first-wins bitmask below caps direct decoding at 64
		// fields; bail before any table work.
		return false
	}
	tab, ok := d.tableFor(n, srcName)
	if !ok {
		return false
	}
	var seen uint64 // first occurrence wins, as in Object.Field
	for i := 0; i < nfields; i++ {
		fname, ok := r.readStrBytes()
		if !ok {
			return false
		}
		fi, hit := tab[string(fname)]
		if hit && seen&(1<<uint(fi)) == 0 {
			seen |= 1 << uint(fi)
			f := &n.fields[fi]
			if !d.decode(r, f.node, out.Field(f.idx), depth+1) {
				return false
			}
			continue
		}
		if !skipBinValue(r, depth+1) {
			return false
		}
	}
	return true
}

// tableFor returns the materializer table mapping source field
// names to compiled field indices for objects whose source type name
// is still in stream bytes. The identity path never needs the name;
// the mapped path consults the node's single-entry hot cache, so the
// steady state (one source type per node per binder) resolves without
// allocating a string for the name or asking the resolver.
func (d *progDecoder) tableFor(n *progNode, src []byte) (map[string]int, bool) {
	if d.resolve == nil {
		return n.nameTab, true
	}
	if d.fp != "" {
		if e := n.lastTab.Load(); e != nil && e.fp == d.fp && string(src) == e.src {
			return e.tab, true
		}
	}
	srcObj := &Object{TypeName: string(src)}
	tab := make(map[string]int, len(n.fields))
	for i := range n.fields {
		name := d.resolve(n.typ, srcObj, n.fields[i].name)
		if _, dup := tab[name]; dup {
			// Two expected fields mapping to one source field is a
			// shape only the reflective path reproduces faithfully.
			return nil, false
		}
		tab[name] = i
	}
	if d.fp != "" {
		n.lastTab.Store(&resolvedTab{src: srcObj.TypeName, fp: d.fp, tab: tab})
	}
	return tab, true
}

// unmarshalTextInto feeds text to out's encoding.TextUnmarshaler; the
// bytes are not retained (the interface contract requires the
// unmarshaler to copy what it keeps).
func unmarshalTextInto(out reflect.Value, text []byte) bool {
	um, isU := out.Addr().Interface().(encoding.TextUnmarshaler)
	if !isU {
		return false
	}
	return um.UnmarshalText(text) == nil
}

func (d *progDecoder) readAsInt64(r *byteReader, tag byte) (int64, bool) {
	switch tag {
	case tagInt:
		u, ok := r.readUvarint()
		return unzigzag(u), ok
	case tagUint:
		u, ok := r.readUvarint()
		if !ok || u > math.MaxInt64 {
			return 0, false
		}
		return int64(u), true
	case tagFloat:
		f, ok := r.readFloat()
		if !ok || f != math.Trunc(f) || f < math.MinInt64 || f > math.MaxInt64 {
			return 0, false
		}
		return int64(f), true
	}
	return 0, false
}

func (d *progDecoder) readAsUint64(r *byteReader, tag byte) (uint64, bool) {
	switch tag {
	case tagUint:
		return r.readUvarint()
	case tagInt:
		u, ok := r.readUvarint()
		if !ok {
			return 0, false
		}
		i := unzigzag(u)
		if i < 0 {
			return 0, false
		}
		return uint64(i), true
	case tagFloat:
		f, ok := r.readFloat()
		if !ok || f != math.Trunc(f) || f < 0 || f > math.MaxUint64 {
			return 0, false
		}
		return uint64(f), true
	}
	return 0, false
}

func (d *progDecoder) readAsFloat64(r *byteReader, tag byte) (float64, bool) {
	switch tag {
	case tagFloat:
		return r.readFloat()
	case tagInt:
		u, ok := r.readUvarint()
		return float64(unzigzag(u)), ok
	case tagUint:
		u, ok := r.readUvarint()
		return float64(u), ok
	}
	return 0, false
}

func (r *byteReader) readFloat() (float64, bool) {
	b, ok := r.readBytes(8)
	if !ok {
		return 0, false
	}
	bits := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	return math.Float64frombits(bits), true
}

// skipBinValue advances past one encoded value without materializing
// it (unknown source fields are ignored, as in the generic path).
func skipBinValue(r *byteReader, depth int) bool {
	if depth > maxBinDepth {
		return false
	}
	tag, ok := r.readByte()
	if !ok {
		return false
	}
	switch tag {
	case tagNil:
		return true
	case tagBool:
		_, ok := r.readByte()
		return ok
	case tagInt, tagUint:
		_, ok := r.readUvarint()
		return ok
	case tagRef:
		// binRead rejects ref id 0 even in fields the materializer
		// would ignore; bail so the reflective path rules on it.
		id, ok := r.readUvarint()
		return ok && id != 0
	case tagFloat:
		_, ok := r.readBytes(8)
		return ok
	case tagString, tagBytes:
		n, ok := r.readLen()
		if !ok {
			return false
		}
		_, ok = r.readBytes(n)
		return ok
	case tagObject:
		if _, ok := r.readString(); !ok {
			return false
		}
		if _, ok := r.readUvarint(); !ok {
			return false
		}
		n, ok := r.readLen()
		if !ok {
			return false
		}
		for i := 0; i < n; i++ {
			if _, ok := r.readString(); !ok {
				return false
			}
			if !skipBinValue(r, depth+1) {
				return false
			}
		}
		return true
	case tagList:
		if _, ok := r.readString(); !ok {
			return false
		}
		n, ok := r.readLen()
		if !ok {
			return false
		}
		for i := 0; i < n; i++ {
			if !skipBinValue(r, depth+1) {
				return false
			}
		}
		return true
	case tagMap:
		if _, ok := r.readString(); !ok {
			return false
		}
		if _, ok := r.readString(); !ok {
			return false
		}
		n, ok := r.readLen()
		if !ok {
			return false
		}
		for i := 0; i < n; i++ {
			if !skipBinValue(r, depth+1) || !skipBinValue(r, depth+1) {
				return false
			}
		}
		return true
	}
	return false
}
