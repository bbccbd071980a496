package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the SOAP-style XML object encoding of
// Section 6.2. It follows the SOAP Section 5 ("SOAP encoding") style:
// a Body element containing a typed element tree, with multi-ref
// values carrying id attributes and back-references using href —
// which is what makes aliasing and cyclic object graphs serializable.

// SOAP wire type names for the primitive kinds (XSD-flavoured, as
// SOAP encoding uses).
const (
	soapBoolean = "boolean"
	soapLong    = "long"
	soapULong   = "unsignedLong"
	soapDouble  = "double"
	soapString  = "string"
	soapBase64  = "base64"
	soapList    = "list"
	soapMap     = "map"
	soapEntry   = "entry"
)

var soapPrimitives = map[string]bool{
	soapBoolean: true, soapLong: true, soapULong: true,
	soapDouble: true, soapString: true, soapBase64: true,
}

// maxSOAPDepth bounds element nesting so a deeply nested document
// cannot exhaust the stack — the XML mirror of maxBinDepth.
const maxSOAPDepth = 1000

// EncodeSOAP renders a generic value as a SOAP-style XML envelope.
// The working buffer is pooled; only the exact-size result slice is
// allocated.
func EncodeSOAP(v Value) ([]byte, error) {
	buf := getBuf()
	buf.WriteString(xml.Header)
	buf.WriteString(soapEnvelopeOpen)
	if err := soapWrite(buf, "value", v); err != nil {
		putBuf(buf)
		return nil, err
	}
	buf.WriteString(soapEnvelopeClose)
	return finishBuf(buf), nil
}

func soapWrite(buf *bytes.Buffer, elem string, v Value) error {
	switch x := v.(type) {
	case nil:
		fmt.Fprintf(buf, `<%s nil="true"/>`, elem)
	case bool:
		writeLeaf(buf, elem, soapBoolean, strconv.FormatBool(x))
	case int64:
		writeLeaf(buf, elem, soapLong, strconv.FormatInt(x, 10))
	case uint64:
		writeLeaf(buf, elem, soapULong, strconv.FormatUint(x, 10))
	case float64:
		writeLeaf(buf, elem, soapDouble, strconv.FormatFloat(x, 'g', -1, 64))
	case string:
		fmt.Fprintf(buf, `<%s type=%q>`, elem, soapString)
		if err := xml.EscapeText(buf, []byte(x)); err != nil {
			return err
		}
		fmt.Fprintf(buf, "</%s>", elem)
	case []byte:
		writeLeaf(buf, elem, soapBase64, base64.StdEncoding.EncodeToString(x))
	case *Ref:
		fmt.Fprintf(buf, `<%s href="#ref-%d"/>`, elem, x.ID)
	case *Object:
		fmt.Fprintf(buf, `<%s type=%q`, elem, x.TypeName)
		if x.ID != 0 {
			fmt.Fprintf(buf, ` id="ref-%d"`, x.ID)
		}
		buf.WriteByte('>')
		for _, f := range x.Fields {
			if err := soapWrite(buf, f.Name, f.Value); err != nil {
				return err
			}
		}
		fmt.Fprintf(buf, "</%s>", elem)
	case *List:
		fmt.Fprintf(buf, `<%s type=%q elemType=%q>`, elem, soapList, x.ElemType)
		for _, item := range x.Items {
			if err := soapWrite(buf, "item", item); err != nil {
				return err
			}
		}
		fmt.Fprintf(buf, "</%s>", elem)
	case *Map:
		fmt.Fprintf(buf, `<%s type=%q keyType=%q elemType=%q>`, elem, soapMap, x.KeyType, x.ElemType)
		for _, e := range x.Entries {
			fmt.Fprintf(buf, "<%s>", soapEntry)
			if err := soapWrite(buf, "key", e.Key); err != nil {
				return err
			}
			if err := soapWrite(buf, "val", e.Value); err != nil {
				return err
			}
			fmt.Fprintf(buf, "</%s>", soapEntry)
		}
		fmt.Fprintf(buf, "</%s>", elem)
	default:
		return fmt.Errorf("wire: unsupported value: %T", v)
	}
	return nil
}

func writeLeaf(buf *bytes.Buffer, elem, typ, content string) {
	fmt.Fprintf(buf, `<%s type=%q>%s</%s>`, elem, typ, content, elem)
}

// DecodeSOAP parses a SOAP envelope produced by EncodeSOAP back into
// the generic value model.
func DecodeSOAP(data []byte) (Value, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	// Walk to the first element inside Body.
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStream, err)
		}
		if start, ok := tok.(xml.StartElement); ok {
			depth++
			if depth == 3 { // Envelope > Body > value
				v, err := soapParse(dec, start, 0)
				if err != nil {
					return nil, err
				}
				// The Body and Envelope end tags must follow: a
				// truncated document is rejected, not silently
				// accepted.
				for i := 0; i < 2; i++ {
					tok, err := dec.Token()
					if err != nil {
						return nil, fmt.Errorf("%w: unterminated envelope: %v", ErrBadStream, err)
					}
					if _, ok := tok.(xml.EndElement); !ok {
						return nil, fmt.Errorf("%w: trailing content in envelope", ErrBadStream)
					}
				}
				return v, nil
			}
			if depth == 1 && start.Name.Local != "Envelope" {
				return nil, fmt.Errorf("%w: root element %q", ErrBadStream, start.Name.Local)
			}
			if depth == 2 && start.Name.Local != "Body" {
				return nil, fmt.Errorf("%w: second element %q", ErrBadStream, start.Name.Local)
			}
		}
		if _, ok := tok.(xml.EndElement); ok {
			return nil, fmt.Errorf("%w: empty body", ErrBadStream)
		}
	}
}

func soapParse(dec *xml.Decoder, start xml.StartElement, depth int) (Value, error) {
	if depth > maxSOAPDepth {
		return nil, fmt.Errorf("%w: nesting too deep", ErrBadStream)
	}
	var typ, id, href, nilAttr, elemType, keyType string
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "type":
			typ = a.Value
		case "id":
			id = a.Value
		case "href":
			href = a.Value
		case "nil":
			nilAttr = a.Value
		case "elemType":
			elemType = a.Value
		case "keyType":
			keyType = a.Value
		}
	}

	if nilAttr == "true" {
		if err := dec.Skip(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStream, err)
		}
		return nil, nil
	}
	if href != "" {
		refID, err := parseRefID(strings.TrimPrefix(href, "#"))
		if err != nil {
			return nil, err
		}
		if err := dec.Skip(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadStream, err)
		}
		return &Ref{ID: refID}, nil
	}

	if soapPrimitives[typ] {
		text, err := collectText(dec)
		if err != nil {
			return nil, err
		}
		return soapParsePrimitive(typ, text)
	}

	switch typ {
	case soapList:
		list := &List{ElemType: elemType}
		err := forEachChild(dec, func(child xml.StartElement) error {
			item, err := soapParse(dec, child, depth+1)
			if err != nil {
				return err
			}
			list.Items = append(list.Items, item)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return list, nil
	case soapMap:
		m := &Map{KeyType: keyType, ElemType: elemType}
		err := forEachChild(dec, func(child xml.StartElement) error {
			if child.Name.Local != soapEntry {
				return fmt.Errorf("%w: map child %q", ErrBadStream, child.Name.Local)
			}
			var e Entry
			slot := 0
			err := forEachChild(dec, func(kv xml.StartElement) error {
				v, err := soapParse(dec, kv, depth+1)
				if err != nil {
					return err
				}
				if slot == 0 {
					e.Key = v
				} else {
					e.Value = v
				}
				slot++
				return nil
			})
			if err != nil {
				return err
			}
			if slot != 2 {
				return fmt.Errorf("%w: map entry with %d children", ErrBadStream, slot)
			}
			m.Entries = append(m.Entries, e)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return m, nil
	case "":
		return nil, fmt.Errorf("%w: element %q missing type attribute", ErrBadStream, start.Name.Local)
	default:
		// An object: typ is its type name.
		obj := &Object{TypeName: typ}
		if id != "" {
			refID, err := parseRefID(id)
			if err != nil {
				return nil, err
			}
			obj.ID = refID
		}
		err := forEachChild(dec, func(child xml.StartElement) error {
			v, err := soapParse(dec, child, depth+1)
			if err != nil {
				return err
			}
			obj.Fields = append(obj.Fields, FieldValue{Name: child.Name.Local, Value: v})
			return nil
		})
		if err != nil {
			return nil, err
		}
		return obj, nil
	}
}

func soapParsePrimitive(typ, text string) (Value, error) {
	switch typ {
	case soapBoolean:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return nil, fmt.Errorf("%w: bad boolean %q", ErrBadStream, text)
		}
		return b, nil
	case soapLong:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad long %q", ErrBadStream, text)
		}
		return n, nil
	case soapULong:
		n, err := strconv.ParseUint(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad unsignedLong %q", ErrBadStream, text)
		}
		return n, nil
	case soapDouble:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad double %q", ErrBadStream, text)
		}
		return f, nil
	case soapString:
		return text, nil
	case soapBase64:
		raw, err := base64.StdEncoding.DecodeString(strings.TrimSpace(text))
		if err != nil {
			return nil, fmt.Errorf("%w: bad base64: %v", ErrBadStream, err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("%w: unknown primitive %q", ErrBadStream, typ)
	}
}

// collectText reads character data until the current element closes.
func collectText(dec *xml.Decoder) (string, error) {
	var sb strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("%w: %v", ErrBadStream, err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			return sb.String(), nil
		case xml.StartElement:
			return "", fmt.Errorf("%w: unexpected child %q in primitive", ErrBadStream, t.Name.Local)
		}
	}
}

// forEachChild invokes fn for every direct child element of the
// current element, stopping at its end tag. fn must fully consume
// each child (soapParse does).
func forEachChild(dec *xml.Decoder, fn func(start xml.StartElement) error) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("%w: unexpected EOF", ErrBadStream)
			}
			return fmt.Errorf("%w: %v", ErrBadStream, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := fn(t); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		}
	}
}

func parseRefID(s string) (int, error) {
	if !strings.HasPrefix(s, "ref-") {
		return 0, fmt.Errorf("%w: bad ref %q", ErrBadStream, s)
	}
	n, err := strconv.Atoi(s[len("ref-"):])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%w: bad ref %q", ErrBadStream, s)
	}
	return n, nil
}
