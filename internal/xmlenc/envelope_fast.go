package xmlenc

import (
	"bytes"
	"encoding/base64"
	"sync"
)

// EnvelopeReader is the receive-side counterpart of EnvelopeTemplate:
// steady-state traffic between two peers repeats the same envelope
// shapes — identical type information, assembly lists and encoding
// tag around a varying payload — so after one full parse the reader
// compiles the shape's template and thereafter recognizes further
// documents of that shape by comparing the constant prefix and suffix
// byte runs. A hit skips parsing entirely: the payload is the
// bytes between the runs, base64-decoded straight into a
// caller-supplied scratch buffer.
//
// Like the wire codecs' compiled decoders, the fast path is strictly
// optimistic: any deviation — an unknown shape, whitespace inside the
// payload character data, a base64 error — falls back to
// UnmarshalEnvelope, which remains the authority for both values and
// errors. A document the fast path accepts is byte-identical to what
// MarshalEnvelope renders for the cached shape's metadata and the
// decoded payload, so the two paths cannot diverge.
type EnvelopeReader struct {
	mu sync.Mutex
	// shapes is kept most-recently-hit first and bounded; the scan is
	// a prefix memcmp per entry, diverging within the first few tens
	// of bytes for a non-matching type.
	shapes []*envShape
}

type envShape struct {
	// prefix is the document up to the payload; envelopeTail follows.
	prefix []byte
	// meta is the envelope with everything but the payload filled in.
	// It is shared across hits and must be treated as read-only by
	// callers (Unmarshal hands out a shallow copy).
	meta Envelope
}

// frames reports whether doc is the shape's prefix, then the
// payload's character data, then envelopeTail.
func (s *envShape) frames(doc []byte) bool {
	return len(doc) >= len(s.prefix)+len(envelopeTail) && bytes.HasPrefix(doc, s.prefix) &&
		string(doc[len(doc)-len(envelopeTail):]) == envelopeTail
}

// maxEnvelopeShapes bounds the cache; a peer receiving more distinct
// shapes than this keeps working, the excess just re-parses.
const maxEnvelopeShapes = 8

// Unmarshal parses an envelope document like UnmarshalEnvelope. The
// scratch buffer's storage, if any, is reused for the payload on the
// compiled fast path; the returned buffer (the payload's backing,
// possibly regrown) should be passed back on the next call once the
// returned envelope has been consumed. The returned envelope's
// payload therefore aliases that buffer on fast-path hits — callers
// that retain the payload past the next call must copy it.
func (er *EnvelopeReader) Unmarshal(data, scratch []byte) (*Envelope, []byte, error) {
	er.mu.Lock()
	shapes := er.shapes
	er.mu.Unlock()
	for i, s := range shapes {
		if !s.frames(data) {
			continue
		}
		payload, ok := decodeBase64Clean(data[len(s.prefix):len(data)-len(envelopeTail)], scratch)
		if !ok {
			// Whitespace-wrapped or malformed character data: another
			// cached shape may still match (nested-prefix shapes), and
			// otherwise UnmarshalEnvelope rules on it.
			continue
		}
		if i != 0 {
			er.promote(s)
		}
		e := s.meta
		e.Payload = payload
		return &e, payload[:0], nil
	}
	env, err := UnmarshalEnvelope(data)
	if err != nil {
		return nil, scratch, err
	}
	er.learn(env, data)
	return env, scratch, nil
}

// learn compiles the template for a successfully parsed document's
// metadata and caches it when the document proves to be
// template-shaped (our own marshaler's rendering). Foreign
// formattings simply never populate the cache and keep taking the
// full parse.
func (er *EnvelopeReader) learn(env *Envelope, doc []byte) {
	meta := Envelope{Type: env.Type, Assemblies: env.Assemblies, Encoding: env.Encoding}
	tpl, err := CompileEnvelopeTemplate(&meta)
	if err != nil {
		return
	}
	s := &envShape{prefix: tpl.prefix, meta: meta}
	if !s.frames(doc) {
		return
	}
	er.mu.Lock()
	defer er.mu.Unlock()
	for _, have := range er.shapes {
		if bytes.Equal(have.prefix, s.prefix) {
			return
		}
	}
	er.shapes = append([]*envShape{s}, er.shapes...)
	if len(er.shapes) > maxEnvelopeShapes {
		er.shapes = er.shapes[:maxEnvelopeShapes]
	}
}

// promote moves a hit shape to the front so the steady state scans
// one entry.
func (er *EnvelopeReader) promote(s *envShape) {
	er.mu.Lock()
	defer er.mu.Unlock()
	for i, have := range er.shapes {
		if have == s {
			copy(er.shapes[1:i+1], er.shapes[:i])
			er.shapes[0] = s
			return
		}
	}
}

// base64Std marks the bytes of the standard base64 alphabet plus
// padding — exactly what our own marshaler emits between the payload
// delimiters. Whitespace is excluded on purpose: the tolerant
// UnmarshalEnvelope handles those documents.
var base64Std = func() (t [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=") {
		t[c] = true
	}
	return
}()

// decodeBase64Clean decodes src into dst's storage when src is pure
// single-line base64; ok=false sends the caller to the tolerant path.
func decodeBase64Clean(src, dst []byte) ([]byte, bool) {
	for _, c := range src {
		if !base64Std[c] {
			return nil, false
		}
	}
	dst, err := base64.StdEncoding.AppendDecode(dst[:0], src)
	return dst, err == nil
}
