// Package xmlenc serializes TypeDescriptions and the transport
// envelope as XML, reproducing the paper's representation choices:
// "Types in our system are represented as XML structures"
// (Section 5.2) and the hybrid scheme of Section 6.2 / Figure 3 where
// an XML message carries type information and download paths and
// embeds the SOAP-or-binary serialized object.
package xmlenc

import (
	"encoding/xml"
	"errors"
	"fmt"

	"pti/internal/bufpool"
	"pti/internal/guid"
	"pti/internal/typedesc"
)

// ErrMalformed is returned when a document parses as XML but does not
// describe a valid TypeDescription or Envelope.
var ErrMalformed = errors.New("xmlenc: malformed document")

// --- XML DTOs: filled by the canonical scanner or by xml.Unmarshal ---

type xmlRef struct {
	Name     string `xml:"name,attr"`
	Identity string `xml:"identity,attr,omitempty"`
}

type xmlField struct {
	Name     string `xml:"name,attr"`
	Exported bool   `xml:"exported,attr"`
	Type     xmlRef `xml:"Type"`
}

type xmlMethod struct {
	Name    string   `xml:"name,attr"`
	Params  []xmlRef `xml:"Param"`
	Returns []xmlRef `xml:"Return"`
}

type xmlCtor struct {
	Name   string   `xml:"name,attr"`
	Params []xmlRef `xml:"Param"`
}

type xmlDescription struct {
	XMLName       xml.Name    `xml:"TypeDescription"`
	Name          string      `xml:"name,attr"`
	Identity      string      `xml:"identity,attr"`
	Kind          string      `xml:"kind,attr"`
	Len           int         `xml:"len,attr,omitempty"`
	Elem          *xmlRef     `xml:"Elem"`
	Key           *xmlRef     `xml:"Key"`
	Super         *xmlRef     `xml:"Super"`
	Interfaces    []xmlRef    `xml:"Interface"`
	Fields        []xmlField  `xml:"Field"`
	Methods       []xmlMethod `xml:"Method"`
	Constructors  []xmlCtor   `xml:"Constructor"`
	DownloadPaths []string    `xml:"DownloadPath"`
}

// --- conversions ----------------------------------------------------

func refFromXML(x xmlRef) (typedesc.TypeRef, error) {
	r := typedesc.TypeRef{Name: x.Name}
	if x.Identity != "" {
		id, err := guid.Parse(x.Identity)
		if err != nil {
			return r, fmt.Errorf("%w: bad identity %q: %v", ErrMalformed, x.Identity, err)
		}
		r.Identity = id
	}
	return r, nil
}

func refPtrFromXML(x *xmlRef) (*typedesc.TypeRef, error) {
	if x == nil {
		return nil, nil
	}
	r, err := refFromXML(*x)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

func refsFromXML(xs []xmlRef) ([]typedesc.TypeRef, error) {
	if xs == nil {
		return nil, nil
	}
	out := make([]typedesc.TypeRef, len(xs))
	for i, x := range xs {
		r, err := refFromXML(x)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// MarshalDescription renders d as an indented XML document — the
// human-readable representation the paper favours for type
// descriptions — in the canonical rendering of canonical.go.
func MarshalDescription(d *typedesc.TypeDescription) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: nil description", ErrMalformed)
	}
	buf := bufpool.Get()
	writeDescription(buf, d)
	return bufpool.Finish(buf), nil
}

// UnmarshalDescription parses an XML description document. The
// canonical rendering MarshalDescription writes is scanned directly;
// any other document is decoded by encoding/xml.
func UnmarshalDescription(data []byte) (*typedesc.TypeDescription, error) {
	x, ok := scanDescription(data)
	if !ok {
		x = xmlDescription{}
		if err := xml.Unmarshal(data, &x); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	return descriptionFromXML(&x)
}

// descriptionFromXML converts and validates a decoded description,
// whichever parser filled it.
func descriptionFromXML(x *xmlDescription) (*typedesc.TypeDescription, error) {
	if x.Name == "" && x.Identity == "" {
		return nil, fmt.Errorf("%w: missing name and identity", ErrMalformed)
	}
	id, err := guid.Parse(x.Identity)
	if err != nil {
		return nil, fmt.Errorf("%w: bad identity %q", ErrMalformed, x.Identity)
	}
	kind := typedesc.ParseKind(x.Kind)
	if kind == typedesc.KindInvalid {
		return nil, fmt.Errorf("%w: bad kind %q", ErrMalformed, x.Kind)
	}

	d := &typedesc.TypeDescription{
		Name:          x.Name,
		Identity:      id,
		Kind:          kind,
		Len:           x.Len,
		DownloadPaths: x.DownloadPaths,
	}
	if d.Elem, err = refPtrFromXML(x.Elem); err != nil {
		return nil, err
	}
	if d.Key, err = refPtrFromXML(x.Key); err != nil {
		return nil, err
	}
	if d.Super, err = refPtrFromXML(x.Super); err != nil {
		return nil, err
	}
	if d.Interfaces, err = refsFromXML(x.Interfaces); err != nil {
		return nil, err
	}
	if len(x.Fields) > 0 {
		d.Fields = make([]typedesc.Field, len(x.Fields))
	}
	for i, f := range x.Fields {
		r, err := refFromXML(f.Type)
		if err != nil {
			return nil, err
		}
		d.Fields[i] = typedesc.Field{Name: f.Name, Exported: f.Exported, Type: r}
	}
	if len(x.Methods) > 0 {
		d.Methods = make([]typedesc.Method, len(x.Methods))
	}
	for i, m := range x.Methods {
		params, err := refsFromXML(m.Params)
		if err != nil {
			return nil, err
		}
		returns, err := refsFromXML(m.Returns)
		if err != nil {
			return nil, err
		}
		d.Methods[i] = typedesc.Method{Name: m.Name, Params: params, Returns: returns}
	}
	if len(x.Constructors) > 0 {
		d.Constructors = make([]typedesc.Constructor, len(x.Constructors))
	}
	for i, c := range x.Constructors {
		params, err := refsFromXML(c.Params)
		if err != nil {
			return nil, err
		}
		d.Constructors[i] = typedesc.Constructor{Name: c.Name, Params: params}
	}
	// Descriptions arrive from other peers: never trust them
	// unvalidated.
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return d, nil
}
