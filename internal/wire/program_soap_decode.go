package wire

import (
	"bytes"
	"encoding/base64"
	"math"
	"reflect"
	"strconv"
	"unicode"
	"unicode/utf8"

	"pti/internal/bufpool"
)

// Compiled SOAP decoding: a byte scanner specialized against the
// program's node graph replaces the generic encoding/xml token stream
// for the receive hot path. Like the compiled binary decoder it is
// strictly optimistic — it recognizes exactly the envelope dialect our
// own encoder emits plus the well-formed variations whose reflective
// outcome it can reproduce with certainty, and bails out (ok=false) on
// anything else: namespaced or non-ASCII names, numeric character
// references, comments and CDATA, carriage returns (the stdlib
// tokenizer normalizes them), out-of-range characters, coercions it
// does not mirror. The reflective DecodeSOAP+ToGo pipeline remains the
// authority for both values and errors.
//
// Everything the scanner accepts is byte-validated to the same rules
// the stdlib tokenizer applies — including chardata it ignores — so a
// document the compiled path decodes is exactly a document the
// reflective path would decode to the same value. Element nesting is
// bounded by maxSOAPDepth just like the reflective parser.

// decodeSOAP materializes a SOAP envelope directly into a value of
// type t (the program's type, or a pointer to it), with the same
// resolver, fingerprint and wantTop contract and fallback semantics as
// decodeBinary.
func (p *Program) decodeSOAP(data []byte, t reflect.Type, resolve FieldResolver, fp, wantTop string) (interface{}, bool) {
	isPtr, ok := p.decodeTarget(t, wantTop)
	if !ok {
		return nil, false
	}
	sd := soapDecoder{progDecoder: progDecoder{resolve: resolve, fp: fp, wantTop: wantTop}, data: data}
	defer sd.release()
	if bytes.HasPrefix(data, xmlHeaderBytes) {
		sd.pos = len(xmlHeaderBytes)
	}
	// Leading chardata (and any between Envelope/Body) is read and
	// discarded by the reflective walk; attrs on the framing elements
	// are ignored there too, so openTag's validated parse suffices.
	if !sd.skipText() {
		return nil, false
	}
	env, ok := sd.openTag()
	if !ok || string(env.name) != "Envelope" || env.selfClose {
		return nil, false
	}
	if !sd.skipText() {
		return nil, false
	}
	body, ok := sd.openTag()
	if !ok || string(body.name) != "Body" || body.selfClose {
		return nil, false
	}
	if !sd.skipText() {
		return nil, false
	}
	root, ok := sd.openTag()
	if !ok {
		return nil, false
	}
	if string(root.nilAttr) == "true" {
		// Top-level nil materializes the zero of t itself (a nil
		// pointer for *T targets, matching the generic path). A caller
		// demanding a named object gets a bail-out instead.
		if wantTop != "" || !sd.elemEmptied(root) || !sd.closeEnvelope() {
			return nil, false
		}
		return reflect.Zero(t).Interface(), true
	}
	if wantTop != "" && string(root.typ) != wantTop {
		return nil, false
	}
	out := reflect.New(p.Type)
	var selfPtr reflect.Value
	if isPtr {
		selfPtr = out
	}
	if !sd.value(root, p.root, selfPtr, out.Elem(), 0) {
		return nil, false
	}
	if !sd.closeEnvelope() {
		return nil, false
	}
	if isPtr {
		return out.Interface(), true
	}
	return out.Elem().Interface(), true
}

// closeEnvelope requires </Body></Envelope> immediately after the
// payload element — the reflective walk rejects any token (even
// whitespace chardata) between them. Trailing bytes after the
// envelope are never read, same as the reflective decoder.
func (sd *soapDecoder) closeEnvelope() bool {
	return sd.closeNamed("Body") && sd.closeNamed("Envelope")
}

type soapDecoder struct {
	progDecoder
	data []byte
	pos  int

	// scratch holds unescaped text when entities appear; pooled, and
	// only borrowed once the first entity is seen.
	scratch *bufpool.Buffer
}

func (sd *soapDecoder) release() {
	if sd.scratch != nil {
		bufpool.Put(sd.scratch)
		sd.scratch = nil
	}
}

// soapTag is one parsed start tag. Only the attributes soapParse
// inspects are kept; unknown attributes are validated and dropped,
// and a repeated attribute overwrites (the reflective switch reads
// them in document order, so last wins there too).
type soapTag struct {
	name      []byte
	typ       []byte
	id        []byte
	href      []byte
	nilAttr   []byte
	selfClose bool
}

// openTag parses `<name attr="v" ...>` or the self-closing form. The
// cursor must sit on '<'; markup other than a start tag (comments,
// PIs, CDATA, directives) fails the parse and falls back.
func (sd *soapDecoder) openTag() (soapTag, bool) {
	var t soapTag
	if sd.pos >= len(sd.data) || sd.data[sd.pos] != '<' {
		return t, false
	}
	sd.pos++
	name, ok := sd.name()
	if !ok {
		return t, false
	}
	t.name = name
	for {
		sd.skipTagSpace()
		if sd.pos >= len(sd.data) {
			return t, false
		}
		switch sd.data[sd.pos] {
		case '>':
			sd.pos++
			return t, true
		case '/':
			sd.pos++
			if sd.pos >= len(sd.data) || sd.data[sd.pos] != '>' {
				return t, false
			}
			sd.pos++
			t.selfClose = true
			return t, true
		}
		an, ok := sd.name()
		if !ok {
			return t, false
		}
		sd.skipTagSpace()
		if sd.pos >= len(sd.data) || sd.data[sd.pos] != '=' {
			return t, false
		}
		sd.pos++
		sd.skipTagSpace()
		av, ok := sd.attrValue()
		if !ok {
			return t, false
		}
		switch string(an) {
		case "type":
			t.typ = av
		case "id":
			t.id = av
		case "href":
			t.href = av
		case "nil":
			t.nilAttr = av
		}
	}
}

// name scans an XML name restricted to the ASCII subset our encoder
// produces: [A-Za-z_][A-Za-z0-9_.-]*. Namespaced (':') and non-ASCII
// names are valid XML but outside the compiled dialect.
func (sd *soapDecoder) name() ([]byte, bool) {
	start := sd.pos
	if sd.pos >= len(sd.data) {
		return nil, false
	}
	c := sd.data[sd.pos]
	if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_') {
		return nil, false
	}
	sd.pos++
	for sd.pos < len(sd.data) {
		c := sd.data[sd.pos]
		if 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == '.' || c == '-' {
			sd.pos++
			continue
		}
		if c == ':' || c >= utf8.RuneSelf {
			return nil, false
		}
		break
	}
	return sd.data[start:sd.pos], true
}

// attrValue scans a quoted attribute value containing no escapes.
// Entities in attribute values are legal XML; they never appear in
// our encoder's output, so they fall back rather than being decoded.
func (sd *soapDecoder) attrValue() ([]byte, bool) {
	if sd.pos >= len(sd.data) {
		return nil, false
	}
	q := sd.data[sd.pos]
	if q != '"' && q != '\'' {
		return nil, false
	}
	sd.pos++
	start := sd.pos
	for sd.pos < len(sd.data) {
		c := sd.data[sd.pos]
		if c == q {
			v := sd.data[start:sd.pos]
			sd.pos++
			if !soapTextValid(v) {
				return nil, false
			}
			return v, true
		}
		if c == '&' || c == '<' {
			return nil, false
		}
		sd.pos++
	}
	return nil, false
}

func (sd *soapDecoder) skipTagSpace() {
	for sd.pos < len(sd.data) {
		switch sd.data[sd.pos] {
		case ' ', '\t', '\n', '\r':
			sd.pos++
		default:
			return
		}
	}
}

// soapTextValid reports whether every character would pass the stdlib
// tokenizer's character validation. '\r' is rejected even though it
// is in range, because the tokenizer rewrites it ('\r' and "\r\n"
// become '\n') and the compiled path does not reproduce that.
func soapTextValid(b []byte) bool {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 || c == '\t' || c == '\n' {
				i++
				continue
			}
			return false
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		if !(r <= 0xD7FF || 0xE000 <= r && r <= 0xFFFD || r >= 0x10000) {
			return false
		}
		i += size
	}
	return true
}

// soapEntity decodes the character reference at b[0]=='&': the five
// predefined entities plus numeric references (which our own escaper,
// xml.EscapeText, emits for quotes and whitespace). ok=false means a
// form only the reflective tokenizer rules on (unknown names,
// unterminated or overlong references — all strict-mode errors there).
func soapEntity(b []byte) (r rune, n int, ok bool) {
	if len(b) >= 4 && b[1] == 'l' && b[2] == 't' && b[3] == ';' {
		return '<', 4, true
	}
	if len(b) >= 4 && b[1] == 'g' && b[2] == 't' && b[3] == ';' {
		return '>', 4, true
	}
	if len(b) >= 5 && b[1] == 'a' && b[2] == 'm' && b[3] == 'p' && b[4] == ';' {
		return '&', 5, true
	}
	if len(b) >= 6 && b[1] == 'a' && b[2] == 'p' && b[3] == 'o' && b[4] == 's' && b[5] == ';' {
		return '\'', 6, true
	}
	if len(b) >= 6 && b[1] == 'q' && b[2] == 'u' && b[3] == 'o' && b[4] == 't' && b[5] == ';' {
		return '"', 6, true
	}
	if len(b) >= 3 && b[1] == '#' {
		return soapNumEntity(b)
	}
	return 0, 0, false
}

// soapNumEntity mirrors the stdlib tokenizer's numeric character
// reference handling exactly: base-10 or (lowercase) base-16 digits,
// strconv.ParseUint overflow semantics, values above unicode.MaxRune
// rejected, and surrogate code points collapsing to U+FFFD the way
// string(rune(n)) does (utf8.AppendRune matches that downstream).
func soapNumEntity(b []byte) (rune, int, bool) {
	i := 2
	base := uint64(10)
	if i < len(b) && b[i] == 'x' {
		base = 16
		i++
	}
	start := i
	var n uint64
	overflow := false
	for i < len(b) {
		c := b[i]
		var d uint64
		if '0' <= c && c <= '9' {
			d = uint64(c - '0')
		} else if base == 16 && 'a' <= c && c <= 'f' {
			d = uint64(c-'a') + 10
		} else if base == 16 && 'A' <= c && c <= 'F' {
			d = uint64(c-'A') + 10
		} else {
			break
		}
		if n > (math.MaxUint64-d)/base {
			overflow = true
		} else {
			n = n*base + d
		}
		i++
	}
	if i >= len(b) || b[i] != ';' || i == start || overflow || n > unicode.MaxRune {
		return 0, 0, false
	}
	return rune(n), i + 1, true
}

// text scans character data up to the next '<', unescaping the
// predefined entities. The result aliases either the input (fast
// path) or the pooled scratch buffer, and is valid only until the
// next text call. Unescaped "]]>" is rejected exactly as the stdlib
// tokenizer rejects it (the ]] state resets after each entity).
func (sd *soapDecoder) text() ([]byte, bool) {
	start := sd.pos
	i := sd.pos
	var b0, b1 byte
	hasEsc := false
	for i < len(sd.data) {
		c := sd.data[i]
		if c == '<' {
			break
		}
		if c == '&' {
			hasEsc = true
			break
		}
		if b0 == ']' && b1 == ']' && c == '>' {
			return nil, false
		}
		b0, b1 = b1, c
		i++
	}
	if !hasEsc {
		seg := sd.data[start:i]
		if !soapTextValid(seg) {
			return nil, false
		}
		sd.pos = i
		return seg, true
	}
	if sd.scratch == nil {
		sd.scratch = bufpool.Get()
	}
	out := sd.scratch.B[:0]
	i = sd.pos
	b0, b1 = 0, 0
	for i < len(sd.data) {
		c := sd.data[i]
		if c == '<' {
			break
		}
		if c == '&' {
			r, n, ok := soapEntity(sd.data[i:])
			if !ok {
				return nil, false
			}
			out = utf8.AppendRune(out, r)
			i += n
			b0, b1 = 0, 0
			continue
		}
		if b0 == ']' && b1 == ']' && c == '>' {
			return nil, false
		}
		b0, b1 = b1, c
		out = append(out, c)
		i++
	}
	sd.scratch.B = out
	if !soapTextValid(out) {
		return nil, false
	}
	sd.pos = i
	return out, true
}

// skipText consumes character data the reflective walk would read and
// discard, stopping at '<'. The discarded text still passes through
// the tokenizer there, so it is validated the same way.
func (sd *soapDecoder) skipText() bool {
	var b0, b1 byte
	start := sd.pos
	for sd.pos < len(sd.data) {
		c := sd.data[sd.pos]
		if c == '<' {
			return soapTextValid(sd.data[start:sd.pos])
		}
		if c == '&' {
			return false
		}
		if b0 == ']' && b1 == ']' && c == '>' {
			return false
		}
		b0, b1 = b1, c
		sd.pos++
	}
	return false
}

// atClose reports whether the cursor sits on an end tag.
func (sd *soapDecoder) atClose() bool {
	return sd.pos+1 < len(sd.data) && sd.data[sd.pos] == '<' && sd.data[sd.pos+1] == '/'
}

// closeTag consumes `</name>` for the given raw name bytes.
func (sd *soapDecoder) closeTag(name []byte) bool {
	if !sd.atClose() {
		return false
	}
	sd.pos += 2
	if len(sd.data)-sd.pos < len(name) || !bytes.Equal(sd.data[sd.pos:sd.pos+len(name)], name) {
		return false
	}
	sd.pos += len(name)
	sd.skipTagSpace()
	if sd.pos >= len(sd.data) || sd.data[sd.pos] != '>' {
		return false
	}
	sd.pos++
	return true
}

func (sd *soapDecoder) closeNamed(name string) bool {
	if !sd.atClose() {
		return false
	}
	sd.pos += 2
	if len(sd.data)-sd.pos < len(name) || string(sd.data[sd.pos:sd.pos+len(name)]) != name {
		return false
	}
	sd.pos += len(name)
	sd.skipTagSpace()
	if sd.pos >= len(sd.data) || sd.data[sd.pos] != '>' {
		return false
	}
	sd.pos++
	return true
}

// elemEmptied accepts the element forms that carry no content — the
// only shapes our encoder emits for nil and href leaves. The
// reflective path dec.Skip()s arbitrary inner content there; anything
// non-empty falls back so Skip can rule on it.
func (sd *soapDecoder) elemEmptied(t soapTag) bool {
	if t.selfClose {
		return true
	}
	return sd.closeTag(t.name)
}

// soapRefID mirrors parseRefID (and the href form's optional '#').
func soapRefID(b []byte, allowHash bool) (uint64, bool) {
	if allowHash && len(b) > 0 && b[0] == '#' {
		b = b[1:]
	}
	if len(b) < 5 || string(b[:4]) != "ref-" {
		return 0, false
	}
	n, err := strconv.Atoi(string(b[4:]))
	if err != nil || n <= 0 {
		return 0, false
	}
	return uint64(n), true
}

// value decodes the element opened by t into out. Mirrors soapParse's
// dispatch order exactly: nil, then href, then the type attribute.
func (sd *soapDecoder) value(t soapTag, n *progNode, selfPtr, out reflect.Value, depth int) bool {
	if depth > maxSOAPDepth {
		return false
	}
	if string(t.nilAttr) == "true" {
		// Zero value stays in place, as in materialize(nil).
		return sd.elemEmptied(t)
	}
	if len(t.href) > 0 {
		if n.op != opPtr {
			// A Ref materializes only into a registered pointer; any
			// other position is a reflective-path error.
			return false
		}
		id, ok := soapRefID(t.href, true)
		if !ok {
			return false
		}
		prev, found := sd.refs[id]
		if !found || prev.Type() != out.Type() {
			return false
		}
		if !sd.elemEmptied(t) {
			return false
		}
		out.Set(prev)
		return true
	}

	switch n.op {
	case opPtr:
		p := reflect.New(n.typ.Elem())
		// The pointer level is invisible in the document, so the depth
		// does not advance; registration (pass one of the ref-id
		// assignment) happens in the opStruct arm below with selfPtr=p.
		if !sd.value(t, n.elem, p, p.Elem(), depth) {
			return false
		}
		out.Set(p)
		return true
	case opBool:
		if string(t.typ) != soapBoolean {
			return false
		}
		txt, ok := sd.leafText(t)
		if !ok {
			return false
		}
		b, ok := parseBoolBytes(txt)
		if !ok {
			return false
		}
		out.SetBool(b)
		return true
	case opInt:
		i, ok := sd.numAsInt64(t)
		if !ok || out.OverflowInt(i) {
			return false
		}
		out.SetInt(i)
		return true
	case opUint:
		u, ok := sd.numAsUint64(t)
		if !ok || out.OverflowUint(u) {
			return false
		}
		out.SetUint(u)
		return true
	case opFloat:
		f, ok := sd.numAsFloat64(t)
		if !ok {
			return false
		}
		out.SetFloat(f)
		return true
	case opString:
		if string(t.typ) != soapString {
			return false
		}
		txt, ok := sd.leafText(t)
		if !ok {
			return false
		}
		out.SetString(string(txt))
		return true
	case opText:
		if string(t.typ) != soapString {
			return false
		}
		txt, ok := sd.leafText(t)
		if !ok {
			return false
		}
		return unmarshalTextInto(out, txt)
	case opBytes:
		if string(t.typ) != soapBase64 {
			return false
		}
		txt, ok := sd.leafText(t)
		if !ok {
			return false
		}
		raw, ok := decodeBase64Trimmed(txt)
		if !ok {
			return false
		}
		if n.isArray {
			if len(raw) != n.arrayLen {
				return false
			}
			reflect.Copy(out, reflect.ValueOf(raw))
			return true
		}
		out.SetBytes(raw)
		return true
	case opStruct:
		return sd.object(t, n, selfPtr, out, depth)
	case opList:
		return sd.list(t, n, out, depth)
	case opMap:
		return sd.mapValue(t, n, out, depth)
	}
	return false
}

// leafText reads a primitive element's character data and its end
// tag. A self-closing element has empty text (the tokenizer delivers
// Start+End with nothing between).
func (sd *soapDecoder) leafText(t soapTag) ([]byte, bool) {
	if t.selfClose {
		return nil, true
	}
	txt, ok := sd.text()
	if !ok {
		return nil, false
	}
	if !sd.closeTag(t.name) {
		// A child element inside a primitive — or a comment, which the
		// reflective collectText tolerates — is for the slow path.
		return nil, false
	}
	return txt, true
}

func (sd *soapDecoder) object(t soapTag, n *progNode, selfPtr, out reflect.Value, depth int) bool {
	if soapPrimitives[string(t.typ)] {
		return false
	}
	switch string(t.typ) {
	case soapList, soapMap, "":
		return false
	}
	if len(t.id) > 0 {
		id, ok := soapRefID(t.id, false)
		if !ok {
			// A malformed id is a parse error on the reflective path
			// regardless of position.
			return false
		}
		if selfPtr.IsValid() {
			// Pass one: register before any field is filled; at
			// non-pointer positions the id is ignored, as in ToGo.
			sd.register(id, selfPtr)
		}
	}
	if len(n.fields) > 64 {
		return false
	}
	tab, ok := sd.tableFor(n, t.typ)
	if !ok {
		return false
	}
	if t.selfClose {
		return true // no children: all fields stay zero
	}
	var seen uint64 // first occurrence wins, as in Object.Field
	for {
		if !sd.skipText() {
			return false
		}
		if sd.atClose() {
			return sd.closeTag(t.name)
		}
		child, ok := sd.openTag()
		if !ok {
			return false
		}
		fi, hit := tab[string(child.name)]
		if hit && seen&(1<<uint(fi)) == 0 {
			seen |= 1 << uint(fi)
			f := &n.fields[fi]
			if !sd.value(child, f.node, reflect.Value{}, out.Field(f.idx), depth+1) {
				return false
			}
			continue
		}
		if !sd.skipValue(child, depth+1) {
			return false
		}
	}
}

func (sd *soapDecoder) list(t soapTag, n *progNode, out reflect.Value, depth int) bool {
	if string(t.typ) != soapList {
		return false
	}
	// elemType is informative: the materializer never checks it.
	if n.isArrayList {
		idx := 0
		if !t.selfClose {
			for {
				if !sd.skipText() {
					return false
				}
				if sd.atClose() {
					if !sd.closeTag(t.name) {
						return false
					}
					break
				}
				child, ok := sd.openTag()
				if !ok || idx >= n.arrayLen {
					return false
				}
				if !sd.value(child, n.elem, reflect.Value{}, out.Index(idx), depth+1) {
					return false
				}
				idx++
			}
		}
		return idx == n.arrayLen
	}
	s := reflect.MakeSlice(out.Type(), 0, 0)
	et := out.Type().Elem()
	if !t.selfClose {
		for {
			if !sd.skipText() {
				return false
			}
			if sd.atClose() {
				if !sd.closeTag(t.name) {
					return false
				}
				break
			}
			child, ok := sd.openTag()
			if !ok {
				return false
			}
			ev := reflect.New(et).Elem()
			if !sd.value(child, n.elem, reflect.Value{}, ev, depth+1) {
				return false
			}
			s = reflect.Append(s, ev)
		}
	}
	// Empty source lists still materialize non-nil, as in ToGo.
	out.Set(s)
	return true
}

func (sd *soapDecoder) mapValue(t soapTag, n *progNode, out reflect.Value, depth int) bool {
	if string(t.typ) != soapMap {
		return false
	}
	mv := reflect.MakeMapWithSize(out.Type(), 0)
	kt, vt := out.Type().Key(), out.Type().Elem()
	if !t.selfClose {
		for {
			if !sd.skipText() {
				return false
			}
			if sd.atClose() {
				if !sd.closeTag(t.name) {
					return false
				}
				break
			}
			entry, ok := sd.openTag()
			if !ok || string(entry.name) != soapEntry {
				return false
			}
			k := reflect.New(kt).Elem()
			v := reflect.New(vt).Elem()
			slot := 0
			if !entry.selfClose {
				for {
					if !sd.skipText() {
						return false
					}
					if sd.atClose() {
						if !sd.closeTag(entry.name) {
							return false
						}
						break
					}
					kv, ok := sd.openTag()
					if !ok || slot >= 2 {
						return false
					}
					var dst reflect.Value
					var node *progNode
					if slot == 0 {
						dst, node = k, n.key
					} else {
						dst, node = v, n.elem
					}
					if !sd.value(kv, node, reflect.Value{}, dst, depth+1) {
						return false
					}
					slot++
				}
			}
			if slot != 2 {
				return false
			}
			mv.SetMapIndex(k, v)
		}
	}
	out.Set(mv)
	return true
}

// skipValue consumes one value element the materializer would ignore
// (an unknown source field). The reflective path still parses ignored
// subtrees through soapParse, so the same grammar — type dispatch,
// primitive syntax, ref-id form, depth bound — is enforced here; only
// a document the reflective parser accepts is skipped.
func (sd *soapDecoder) skipValue(t soapTag, depth int) bool {
	if depth > maxSOAPDepth {
		return false
	}
	if string(t.nilAttr) == "true" {
		return sd.elemEmptied(t)
	}
	if len(t.href) > 0 {
		if _, ok := soapRefID(t.href, true); !ok {
			return false
		}
		return sd.elemEmptied(t)
	}
	typ := t.typ
	if soapPrimitives[string(typ)] {
		txt, ok := sd.leafText(t)
		if !ok {
			return false
		}
		switch string(typ) {
		case soapBoolean:
			_, ok = parseBoolBytes(txt)
		case soapLong:
			_, ok = parseIntBytes(txt)
		case soapULong:
			_, ok = parseUintDigits(txt)
		case soapDouble:
			_, err := strconv.ParseFloat(string(txt), 64)
			ok = err == nil
		case soapString:
			ok = true
		case soapBase64:
			_, ok = decodeBase64Trimmed(txt)
		}
		return ok
	}
	switch string(typ) {
	case "":
		return false // missing type attribute: reflective parse error
	case soapMap:
		if t.selfClose {
			return true
		}
		for {
			if !sd.skipText() {
				return false
			}
			if sd.atClose() {
				return sd.closeTag(t.name)
			}
			entry, ok := sd.openTag()
			if !ok || string(entry.name) != soapEntry {
				return false
			}
			slot := 0
			if !entry.selfClose {
				for {
					if !sd.skipText() {
						return false
					}
					if sd.atClose() {
						if !sd.closeTag(entry.name) {
							return false
						}
						break
					}
					kv, ok := sd.openTag()
					if !ok || !sd.skipValue(kv, depth+1) {
						return false
					}
					slot++
				}
			}
			if slot != 2 {
				return false
			}
		}
	default:
		// soapList and objects share the child-walk; objects also get
		// their id syntax checked (a bad id fails the reflective parse).
		if string(typ) != soapList && len(t.id) > 0 {
			if _, ok := soapRefID(t.id, false); !ok {
				return false
			}
		}
		if t.selfClose {
			return true
		}
		for {
			if !sd.skipText() {
				return false
			}
			if sd.atClose() {
				return sd.closeTag(t.name)
			}
			child, ok := sd.openTag()
			if !ok || !sd.skipValue(child, depth+1) {
				return false
			}
		}
	}
}

// numAsInt64 mirrors soapParsePrimitive + asInt64 for an opInt target:
// the generic value a "long"/"unsignedLong"/"double" element produces,
// coerced exactly as the materializer coerces it.
func (sd *soapDecoder) numAsInt64(t soapTag) (int64, bool) {
	switch string(t.typ) {
	case soapLong:
		txt, ok := sd.leafText(t)
		if !ok {
			return 0, false
		}
		return parseIntBytes(txt)
	case soapULong:
		txt, ok := sd.leafText(t)
		if !ok {
			return 0, false
		}
		u, ok := parseUintDigits(txt)
		if !ok || u > math.MaxInt64 {
			return 0, false
		}
		return int64(u), true
	case soapDouble:
		f, ok := sd.doubleText(t)
		if !ok || f != math.Trunc(f) || f < math.MinInt64 || f > math.MaxInt64 {
			return 0, false
		}
		return int64(f), true
	}
	return 0, false
}

func (sd *soapDecoder) numAsUint64(t soapTag) (uint64, bool) {
	switch string(t.typ) {
	case soapULong:
		txt, ok := sd.leafText(t)
		if !ok {
			return 0, false
		}
		return parseUintDigits(txt)
	case soapLong:
		txt, ok := sd.leafText(t)
		if !ok {
			return 0, false
		}
		i, ok := parseIntBytes(txt)
		if !ok || i < 0 {
			return 0, false
		}
		return uint64(i), true
	case soapDouble:
		f, ok := sd.doubleText(t)
		if !ok || f != math.Trunc(f) || f < 0 || f > math.MaxUint64 {
			return 0, false
		}
		return uint64(f), true
	}
	return 0, false
}

func (sd *soapDecoder) numAsFloat64(t soapTag) (float64, bool) {
	switch string(t.typ) {
	case soapDouble:
		return sd.doubleText(t)
	case soapLong:
		txt, ok := sd.leafText(t)
		if !ok {
			return 0, false
		}
		i, ok := parseIntBytes(txt)
		if !ok {
			return 0, false
		}
		return float64(i), true
	case soapULong:
		txt, ok := sd.leafText(t)
		if !ok {
			return 0, false
		}
		u, ok := parseUintDigits(txt)
		if !ok {
			return 0, false
		}
		return float64(u), true
	}
	return 0, false
}

func (sd *soapDecoder) doubleText(t soapTag) (float64, bool) {
	txt, ok := sd.leafText(t)
	if !ok {
		return 0, false
	}
	// strconv.ParseFloat itself, for exact semantics (hex floats,
	// underscores, Inf/NaN spellings); the string conversion is the
	// price of fidelity and doubles are rare in hot payloads.
	f, err := strconv.ParseFloat(string(txt), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// parseBoolBytes is strconv.ParseBool over raw bytes.
func parseBoolBytes(b []byte) (bool, bool) {
	switch string(b) {
	case "1", "t", "T", "true", "TRUE", "True":
		return true, true
	case "0", "f", "F", "false", "FALSE", "False":
		return false, true
	}
	return false, false
}

// parseIntBytes is strconv.ParseInt(s, 10, 64) over raw bytes
// (explicit base 10: no prefixes, no underscores).
func parseIntBytes(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	u, ok := parseUintDigits(b)
	if !ok {
		return 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// parseUintDigits is strconv.ParseUint(s, 10, 64): digits only, no
// sign, overflow-checked.
func parseUintDigits(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	return u, true
}

// decodeBase64Trimmed mirrors DecodeString(strings.TrimSpace(text)):
// ASCII space trimming only — any non-ASCII byte at the edges would
// engage unicode.IsSpace semantics we do not mirror, so it bails.
func decodeBase64Trimmed(txt []byte) ([]byte, bool) {
	for len(txt) > 0 && asciiSpace(txt[0]) {
		txt = txt[1:]
	}
	for len(txt) > 0 && asciiSpace(txt[len(txt)-1]) {
		txt = txt[:len(txt)-1]
	}
	if len(txt) > 0 && (txt[0] >= utf8.RuneSelf || txt[len(txt)-1] >= utf8.RuneSelf) {
		return nil, false
	}
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(txt)))
	n, err := base64.StdEncoding.Decode(dst, txt)
	if err != nil {
		return nil, false
	}
	return dst[:n], true
}

func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}
