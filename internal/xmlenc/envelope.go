package xmlenc

import (
	"encoding/xml"
	"fmt"

	"pti/internal/guid"
	"pti/internal/typedesc"
)

// PayloadEncoding names the serialization used for the embedded
// object payload (Section 6.2: "The SOAP or binary serializations are
// used to serialize efficiently the whole object").
type PayloadEncoding string

// Supported payload encodings.
const (
	EncodingSOAP   PayloadEncoding = "soap"
	EncodingBinary PayloadEncoding = "binary"
)

// AssemblyInfo describes one "assembly" involved in the payload: the
// type it implements and where its description and code can be
// downloaded (Figure 3: "<Assembly A information> <Assembly B
// information>").
type AssemblyInfo struct {
	Type          typedesc.TypeRef
	DownloadPaths []string
}

// Envelope is the hybrid XML message of Figure 3: human-readable type
// information and download paths wrapped around an efficiently
// serialized object payload. The payload is opaque at this layer.
type Envelope struct {
	// Type is the root object's type.
	Type typedesc.TypeRef
	// Assemblies lists the root type and every nested type the
	// receiver may need to resolve (object A's and object B's
	// assembly information in Figure 3).
	Assemblies []AssemblyInfo
	// Encoding tags how Payload was produced.
	Encoding PayloadEncoding
	// Payload is the serialized object.
	Payload []byte
}

type xmlAssembly struct {
	Type          xmlRef   `xml:"Type"`
	DownloadPaths []string `xml:"DownloadPath"`
}

type xmlEnvelope struct {
	XMLName    xml.Name      `xml:"Message"`
	Type       xmlRef        `xml:"TypeInfo"`
	Assemblies []xmlAssembly `xml:"Assembly"`
	Payload    xmlPayload    `xml:"Payload"`
}

type xmlPayload struct {
	Encoding string `xml:"encoding,attr"`
	// Data is the payload's base64 text, carried as character data.
	Data string `xml:",chardata"`
}

// validEncoding reports an envelope's payload encoding as malformed
// unless it is one this package produces.
func validEncoding(enc PayloadEncoding) error {
	if enc != EncodingSOAP && enc != EncodingBinary {
		return fmt.Errorf("%w: unknown payload encoding %q", ErrMalformed, enc)
	}
	return nil
}

// MarshalEnvelope renders the envelope as an XML document. The binary
// payload is base64-encoded inside the <Payload> element so the
// surrounding message stays valid, human-readable XML.
func MarshalEnvelope(e *Envelope) ([]byte, error) {
	tpl, err := CompileEnvelopeTemplate(e)
	if err != nil {
		return nil, err
	}
	return tpl.Append(make([]byte, 0, tpl.Size(len(e.Payload))), e.Payload), nil
}

// UnmarshalEnvelope parses an XML envelope document. The canonical
// rendering MarshalEnvelope writes is scanned directly; any other
// document is decoded by encoding/xml.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	x, ok := scanEnvelope(data)
	if !ok {
		x = xmlEnvelope{}
		if err := xml.Unmarshal(data, &x); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
	return envelopeFromXML(&x)
}

// envelopeFromXML converts and validates a decoded envelope,
// whichever parser filled it.
func envelopeFromXML(x *xmlEnvelope) (*Envelope, error) {
	typ, err := refFromXML(x.Type)
	if err != nil {
		return nil, err
	}
	if typ.IsZero() {
		return nil, fmt.Errorf("%w: envelope missing TypeInfo", ErrMalformed)
	}
	enc := PayloadEncoding(x.Payload.Encoding)
	if err := validEncoding(enc); err != nil {
		return nil, err
	}
	payload, err := base64Decode(x.Payload.Data)
	if err != nil {
		return nil, fmt.Errorf("%w: bad payload: %v", ErrMalformed, err)
	}
	e := &Envelope{Type: typ, Encoding: enc, Payload: payload}
	if len(x.Assemblies) > 0 {
		e.Assemblies = make([]AssemblyInfo, len(x.Assemblies))
	}
	for i, a := range x.Assemblies {
		ref, err := refFromXML(a.Type)
		if err != nil {
			return nil, err
		}
		e.Assemblies[i] = AssemblyInfo{Type: ref, DownloadPaths: a.DownloadPaths}
	}
	return e, nil
}

// AssemblyFor returns the assembly info for the given identity, if
// present.
func (e *Envelope) AssemblyFor(id guid.GUID) (AssemblyInfo, bool) {
	for _, a := range e.Assemblies {
		if a.Type.Identity == id {
			return a, true
		}
	}
	return AssemblyInfo{}, false
}
