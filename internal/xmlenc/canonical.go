package xmlenc

import (
	"encoding/xml"
	"strconv"
	"unicode/utf8"

	"pti/internal/bufpool"
	"pti/internal/typedesc"
)

// The canonical rendering. Descriptions and envelopes are written by
// hand, byte for byte as encoding/xml's Encoder with Indent("", "  ")
// renders the xmlDescription and xmlEnvelope DTOs: the xml.Header
// line, two-space indentation, attributes in DTO field order, the
// omitempty rules of identity and len, <X ...></X> for an element
// without children, and the Encoder's escaping. The scanner below
// reads back exactly that language and nothing else; any other
// document is left to xml.Unmarshal, which stays the authority for
// documents this package did not write.

// writeEscaped writes s escaped as the Encoder escapes attribute
// values and character data. Plain printable ASCII is copied; any
// other string goes through xml.EscapeText, which also replaces
// invalid characters with U+FFFD.
func writeEscaped(buf *bufpool.Buffer, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '&' || c == '<' || c == '>' || c == '\'' || c == '"' {
			_ = xml.EscapeText(buf, []byte(s)) // a bufpool.Buffer write does not fail
			return
		}
	}
	buf.WriteString(s)
}

// isXMLChar reports whether r is in the XML 1.0 Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// writeRef appends `<tag name=".." identity=".."></tag>` on its own
// line at the given indentation; a nil identity omits the attribute.
func writeRef(buf *bufpool.Buffer, indent, tag string, r typedesc.TypeRef) {
	buf.WriteString(indent)
	buf.WriteByte('<')
	buf.WriteString(tag)
	buf.WriteString(` name="`)
	writeEscaped(buf, r.Name)
	if !r.Identity.IsNil() {
		buf.WriteString(`" identity="`)
		buf.B = r.Identity.AppendText(buf.B)
	}
	buf.WriteString(`"></`)
	buf.WriteString(tag)
	buf.WriteByte('>')
}

// writeRefs appends one ref element per r and reports whether it
// wrote any.
func writeRefs(buf *bufpool.Buffer, indent, tag string, rs []typedesc.TypeRef) bool {
	for _, r := range rs {
		writeRef(buf, indent, tag, r)
	}
	return len(rs) > 0
}

func writeDownloadPaths(buf *bufpool.Buffer, indent string, paths []string) {
	for _, p := range paths {
		buf.WriteString(indent)
		buf.WriteString("<DownloadPath>")
		writeEscaped(buf, p)
		buf.WriteString("</DownloadPath>")
	}
}

func writeDescription(buf *bufpool.Buffer, d *typedesc.TypeDescription) {
	buf.WriteString(xml.Header)
	buf.WriteString(`<TypeDescription name="`)
	writeEscaped(buf, d.Name)
	buf.WriteString(`" identity="`)
	buf.B = d.Identity.AppendText(buf.B)
	buf.WriteString(`" kind="`)
	writeEscaped(buf, d.Kind.String())
	buf.WriteByte('"')
	if d.Len != 0 {
		buf.WriteString(` len="`)
		buf.WriteString(strconv.Itoa(d.Len))
		buf.WriteByte('"')
	}
	buf.WriteByte('>')
	empty := len(buf.B)
	for _, p := range []struct {
		tag string
		ref *typedesc.TypeRef
	}{{"Elem", d.Elem}, {"Key", d.Key}, {"Super", d.Super}} {
		if p.ref != nil {
			writeRef(buf, "\n  ", p.tag, *p.ref)
		}
	}
	writeRefs(buf, "\n  ", "Interface", d.Interfaces)
	for _, f := range d.Fields {
		buf.WriteString("\n  <Field name=\"")
		writeEscaped(buf, f.Name)
		buf.WriteString(`" exported="`)
		buf.WriteString(strconv.FormatBool(f.Exported))
		buf.WriteString(`">`)
		writeRef(buf, "\n    ", "Type", f.Type)
		buf.WriteString("\n  </Field>")
	}
	for _, m := range d.Methods {
		buf.WriteString("\n  <Method name=\"")
		writeEscaped(buf, m.Name)
		buf.WriteString(`">`)
		params := writeRefs(buf, "\n    ", "Param", m.Params)
		if writeRefs(buf, "\n    ", "Return", m.Returns) || params {
			buf.WriteString("\n  ")
		}
		buf.WriteString("</Method>")
	}
	for _, c := range d.Constructors {
		buf.WriteString("\n  <Constructor name=\"")
		writeEscaped(buf, c.Name)
		buf.WriteString(`">`)
		if writeRefs(buf, "\n    ", "Param", c.Params) {
			buf.WriteString("\n  ")
		}
		buf.WriteString("</Constructor>")
	}
	writeDownloadPaths(buf, "\n  ", d.DownloadPaths)
	if len(buf.B) != empty {
		buf.WriteByte('\n')
	}
	buf.WriteString("</TypeDescription>\n")
}

// envelopeTail closes every envelope document after the payload's
// character data.
const envelopeTail = "</Payload>\n</Message>\n"

// writeEnvelopeHead appends everything of e's document up to the
// payload's character data; envelopeTail follows the payload.
func writeEnvelopeHead(buf *bufpool.Buffer, e *Envelope) {
	buf.WriteString(xml.Header)
	buf.WriteString("<Message>")
	writeRef(buf, "\n  ", "TypeInfo", e.Type)
	for _, a := range e.Assemblies {
		buf.WriteString("\n  <Assembly>")
		writeRef(buf, "\n    ", "Type", a.Type)
		writeDownloadPaths(buf, "\n    ", a.DownloadPaths)
		buf.WriteString("\n  </Assembly>")
	}
	buf.WriteString("\n  <Payload encoding=\"")
	writeEscaped(buf, string(e.Encoding))
	buf.WriteString(`">`)
}

// scanner reads a document in the canonical rendering. The first
// byte that is not where the writer would have put it clears ok, and
// every later step is a no-op; the caller then hands the document to
// xml.Unmarshal.
type scanner struct {
	b  []byte
	ok bool
}

// peek reports whether the input continues with s.
func (sc *scanner) peek(s string) bool {
	return sc.ok && len(sc.b) >= len(s) && string(sc.b[:len(s)]) == s
}

// lit consumes s, which must come next.
func (sc *scanner) lit(s string) {
	if !sc.peek(s) {
		sc.ok = false
		return
	}
	sc.b = sc.b[len(s):]
}

// entities are the escapes xml.EscapeText produces; no other
// reference is canonical.
var entities = []struct{ ref, val string }{
	{"&#34;", `"`}, {"&#39;", "'"}, {"&amp;", "&"}, {"&lt;", "<"},
	{"&gt;", ">"}, {"&#x9;", "\t"}, {"&#xA;", "\n"}, {"&#xD;", "\r"},
}

// text consumes escaped character data up to, not including, the
// next end byte ('"' for an attribute value, '<' for element content)
// and returns it unescaped. Anything writeEscaped would have escaped
// must arrive escaped.
func (sc *scanner) text(end byte) string {
	if !sc.ok {
		return ""
	}
	var out []byte // unescaped value, once the first entity is seen
	b, start := sc.b, 0
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == end:
			sc.b = b[i:]
			if out == nil {
				return string(b[:i])
			}
			return string(append(out, b[start:i]...))
		case c == '&':
			known := false
			for _, e := range entities {
				if len(b)-i >= len(e.ref) && string(b[i:i+len(e.ref)]) == e.ref {
					out = append(append(out, b[start:i]...), e.val...)
					i += len(e.ref)
					start, known = i, true
					break
				}
			}
			if !known {
				sc.ok = false
				return ""
			}
		case c < 0x20 || c == '"' || c == '\'' || c == '<' || c == '>':
			sc.ok = false
			return ""
		case c < utf8.RuneSelf:
			i++
		default:
			r, width := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && width == 1 || !isXMLChar(r) {
				sc.ok = false
				return ""
			}
			i += width
		}
	}
	sc.ok = false
	return ""
}

// attr consumes ` name="value"` and returns the unescaped value.
func (sc *scanner) attr(name string) string {
	sc.lit(" ")
	sc.lit(name)
	sc.lit(`="`)
	v := sc.text('"')
	sc.lit(`"`)
	return v
}

// ref consumes one element writeRef rendered.
func (sc *scanner) ref(indent, tag string) xmlRef {
	sc.lit(indent)
	sc.lit("<")
	sc.lit(tag)
	x := xmlRef{Name: sc.attr("name")}
	if sc.peek(` identity="`) {
		// The writer omits an empty identity.
		if x.Identity = sc.attr("identity"); x.Identity == "" {
			sc.ok = false
		}
	}
	sc.lit("></")
	sc.lit(tag)
	sc.lit(">")
	return x
}

// peekTag reports whether the next line opens a tag element that
// carries attributes.
func (sc *scanner) peekTag(indent, tag string) bool {
	b, n := sc.b, len(indent)+1+len(tag)
	return sc.ok && len(b) > n && string(b[:len(indent)]) == indent &&
		b[len(indent)] == '<' && string(b[len(indent)+1:n]) == tag && b[n] == ' '
}

// refs consumes every consecutive ref element with this tag.
func (sc *scanner) refs(indent, tag string) []xmlRef {
	var out []xmlRef
	for sc.peekTag(indent, tag) {
		out = append(out, sc.ref(indent, tag))
	}
	return out
}

// downloadPaths consumes every consecutive DownloadPath element; open
// is the indentation and start tag.
func (sc *scanner) downloadPaths(open string) []string {
	var out []string
	for sc.peek(open) {
		sc.lit(open)
		out = append(out, sc.text('<'))
		sc.lit("</DownloadPath>")
	}
	return out
}

// scanDescription reads a description in the canonical rendering
// into the DTO xml.Unmarshal would fill from it; ok is false for any
// other document.
func scanDescription(data []byte) (x xmlDescription, ok bool) {
	sc := scanner{b: data, ok: true}
	sc.lit(xml.Header)
	sc.lit("<TypeDescription")
	x.Name = sc.attr("name")
	x.Identity = sc.attr("identity")
	x.Kind = sc.attr("kind")
	if sc.peek(` len="`) {
		s := sc.attr("len")
		// Only the writer's form of a non-zero int: no sign, no
		// leading zeros.
		n, err := strconv.Atoi(s)
		if err != nil || n == 0 || strconv.Itoa(n) != s {
			sc.ok = false
		}
		x.Len = n
	}
	sc.lit(">")
	empty := len(sc.b)
	for _, p := range []struct {
		tag string
		dst **xmlRef
	}{{"Elem", &x.Elem}, {"Key", &x.Key}, {"Super", &x.Super}} {
		if sc.peekTag("\n  ", p.tag) {
			r := sc.ref("\n  ", p.tag)
			*p.dst = &r
		}
	}
	x.Interfaces = sc.refs("\n  ", "Interface")
	for sc.peekTag("\n  ", "Field") {
		sc.lit("\n  <Field")
		f := xmlField{Name: sc.attr("name")}
		switch sc.attr("exported") {
		case "true":
			f.Exported = true
		case "false":
		default:
			sc.ok = false
		}
		sc.lit(">")
		f.Type = sc.ref("\n    ", "Type")
		sc.lit("\n  </Field>")
		x.Fields = append(x.Fields, f)
	}
	for sc.peekTag("\n  ", "Method") {
		sc.lit("\n  <Method")
		m := xmlMethod{Name: sc.attr("name")}
		sc.lit(">")
		m.Params = sc.refs("\n    ", "Param")
		m.Returns = sc.refs("\n    ", "Return")
		if m.Params != nil || m.Returns != nil {
			sc.lit("\n  ")
		}
		sc.lit("</Method>")
		x.Methods = append(x.Methods, m)
	}
	for sc.peekTag("\n  ", "Constructor") {
		sc.lit("\n  <Constructor")
		c := xmlCtor{Name: sc.attr("name")}
		sc.lit(">")
		if c.Params = sc.refs("\n    ", "Param"); c.Params != nil {
			sc.lit("\n  ")
		}
		sc.lit("</Constructor>")
		x.Constructors = append(x.Constructors, c)
	}
	x.DownloadPaths = sc.downloadPaths("\n  <DownloadPath>")
	if len(sc.b) != empty {
		sc.lit("\n")
	}
	sc.lit("</TypeDescription>\n")
	return x, sc.ok && len(sc.b) == 0
}

// scanEnvelope is scanDescription's counterpart for envelopes.
func scanEnvelope(data []byte) (x xmlEnvelope, ok bool) {
	sc := scanner{b: data, ok: true}
	sc.lit(xml.Header)
	sc.lit("<Message>")
	x.Type = sc.ref("\n  ", "TypeInfo")
	for sc.peek("\n  <Assembly>") {
		sc.lit("\n  <Assembly>")
		a := xmlAssembly{Type: sc.ref("\n    ", "Type")}
		a.DownloadPaths = sc.downloadPaths("\n    <DownloadPath>")
		sc.lit("\n  </Assembly>")
		x.Assemblies = append(x.Assemblies, a)
	}
	sc.lit("\n  <Payload")
	x.Payload.Encoding = sc.attr("encoding")
	sc.lit(">")
	x.Payload.Data = sc.text('<')
	sc.lit(envelopeTail)
	return x, sc.ok && len(sc.b) == 0
}
