package xmlenc

import (
	"encoding/base64"
	"fmt"

	"pti/internal/bufpool"
)

// EnvelopeTemplate is the compiled static form of an Envelope: every
// byte of the Figure 3 XML message that does not depend on the
// payload — the header, the TypeInfo element, the assembly list and
// the payload element's delimiters — is rendered once at compile
// time, so a steady-state send only base64-writes the payload between
// two constant byte runs. This is the envelope counterpart of
// wire.Program: type information never changes between sends of the
// same registered type, so it is paid for once, at registration or
// first use, not per message.
type EnvelopeTemplate struct {
	// prefix is the document up to the payload's character data;
	// envelopeTail follows the payload.
	prefix   []byte
	encoding PayloadEncoding
}

// CompileEnvelopeTemplate renders e's document (its Payload is
// ignored) up to the payload, so Append's output is byte-identical to
// what MarshalEnvelope produces for any payload.
func CompileEnvelopeTemplate(e *Envelope) (*EnvelopeTemplate, error) {
	if e == nil {
		return nil, fmt.Errorf("%w: nil envelope", ErrMalformed)
	}
	if err := validEncoding(e.Encoding); err != nil {
		return nil, err
	}
	buf := bufpool.Get()
	writeEnvelopeHead(buf, e)
	return &EnvelopeTemplate{prefix: bufpool.Finish(buf), encoding: e.Encoding}, nil
}

// Encoding returns the payload encoding the template was compiled
// for.
func (t *EnvelopeTemplate) Encoding() PayloadEncoding { return t.encoding }

// Size returns the exact marshaled envelope size for a payload of n
// bytes, so callers can pre-size the destination and keep Append
// allocation-free.
func (t *EnvelopeTemplate) Size(n int) int {
	return len(t.prefix) + base64.StdEncoding.EncodedLen(n) + len(envelopeTail)
}

// Append appends the full envelope document for payload to dst and
// returns the extended slice. With sufficient capacity in dst it
// performs no allocations.
func (t *EnvelopeTemplate) Append(dst, payload []byte) []byte {
	dst = append(dst, t.prefix...)
	dst = base64.StdEncoding.AppendEncode(dst, payload)
	return append(dst, envelopeTail...)
}
