package wire

import (
	"fmt"
	"reflect"
)

// Codec pairs one payload encoding with the generic value model. The
// transport layer selects a codec per the envelope's encoding tag.
type Codec interface {
	// Name tags the encoding ("soap" or "binary"), matching the
	// envelope attribute.
	Name() string
	// DecodeGeneric parses a stream into the generic model — the
	// path taken when the receiver does not (yet) know the type.
	DecodeGeneric(data []byte) (Value, error)
	// EncodeCompiled appends the encoding of v to dst through prog's
	// compiled fast path, transparently falling back to the
	// reflective path when prog is nil, not direct, or does not match
	// v's type. dst may be nil; reusing it across calls makes the
	// steady-state encode allocation-free.
	EncodeCompiled(prog *Program, dst []byte, v interface{}) ([]byte, error)
	// DecodeCompiled materializes a stream into a Go value of type t,
	// translating field names through resolve (nil = identity),
	// through prog's compiled materializer with the same transparent
	// fallback (a nil prog decodes reflectively: DecodeGeneric, then
	// ToGo). fp fingerprints the resolver's behaviour for
	// materializer-table memoization ("" = do not memoize; identity
	// decodes, resolve == nil, are always memoized).
	DecodeCompiled(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp string) (interface{}, error)
	// DecodeObjectFast materializes a stream the caller's protocol
	// says carries an object of the named source type, through prog's
	// compiled materializer only — no internal fallback. ok=false
	// tells the caller to run its own reflective pipeline (generic
	// decode + bind), which stays the authority for values, errors
	// and conformance; in particular a payload whose embedded type
	// name differs from srcName always comes back ok=false.
	DecodeObjectFast(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp, srcName string) (interface{}, bool)
}

// SOAP is the XML codec of Section 6.2.
type SOAP struct{}

// Binary is the compact codec of Section 6.2.
type Binary struct{}

var (
	_ Codec = SOAP{}
	_ Codec = Binary{}
)

// Name implements Codec.
func (SOAP) Name() string { return "soap" }

// DecodeGeneric implements Codec.
func (SOAP) DecodeGeneric(data []byte) (Value, error) { return DecodeSOAP(data) }

// EncodeCompiled implements Codec.
func (SOAP) EncodeCompiled(prog *Program, dst []byte, v interface{}) ([]byte, error) {
	return encodeCompiled(prog, dst, v, (*Program).AppendSOAP, EncodeSOAP)
}

// DecodeCompiled implements Codec.
func (SOAP) DecodeCompiled(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp string) (interface{}, error) {
	return decodeCompiled(prog, data, t, resolve, fp, (*Program).decodeSOAP, DecodeSOAP)
}

// DecodeObjectFast implements Codec.
func (SOAP) DecodeObjectFast(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp, srcName string) (interface{}, bool) {
	if prog == nil || srcName == "" {
		return nil, false
	}
	return prog.decodeSOAP(data, t, resolve, fp, srcName)
}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// DecodeGeneric implements Codec.
func (Binary) DecodeGeneric(data []byte) (Value, error) { return DecodeBinary(data) }

// EncodeCompiled implements Codec.
func (Binary) EncodeCompiled(prog *Program, dst []byte, v interface{}) ([]byte, error) {
	return encodeCompiled(prog, dst, v, (*Program).AppendBinary, EncodeBinary)
}

// DecodeCompiled implements Codec.
func (Binary) DecodeCompiled(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp string) (interface{}, error) {
	return decodeCompiled(prog, data, t, resolve, fp, (*Program).decodeBinary, DecodeBinary)
}

// DecodeObjectFast implements Codec.
func (Binary) DecodeObjectFast(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp, srcName string) (interface{}, bool) {
	if prog == nil || srcName == "" {
		return nil, false
	}
	return prog.decodeBinary(data, t, resolve, fp, srcName)
}

// encodeCompiled is EncodeCompiled over one codec's compiled encoder
// (appendTo) and reflective one (encode). The reflective path renders
// v's generic value tree, its root stamped with prog's wire name (nil
// prog: the Go spelling), and returns the exact-size result directly
// when the caller brought no buffer to append into.
func encodeCompiled(prog *Program, dst []byte, v interface{},
	appendTo func(*Program, []byte, interface{}) ([]byte, bool, error), encode func(Value) ([]byte, error)) ([]byte, error) {
	if prog != nil {
		if out, ok, err := appendTo(prog, dst, v); ok {
			return out, err
		}
	}
	gv, err := FromGo(v)
	if err != nil {
		return dst, err
	}
	prog.stampRoot(gv, v)
	data, err := encode(gv)
	if err != nil {
		return dst, err
	}
	if len(dst) == 0 {
		return data, nil
	}
	return append(dst, data...), nil
}

// decodeCompiled is DecodeCompiled over one codec's compiled decoder
// and generic parser. The reflective path, the parse into the generic
// model and ToGo, stays the authority for values and errors.
func decodeCompiled(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp string,
	decodeTo func(*Program, []byte, reflect.Type, FieldResolver, string, string) (interface{}, bool), parse func([]byte) (Value, error)) (interface{}, error) {
	if prog != nil {
		if out, ok := decodeTo(prog, data, t, resolve, fp, ""); ok {
			return out, nil
		}
	}
	gv, err := parse(data)
	if err != nil {
		return nil, err
	}
	return ToGo(gv, t, resolve)
}

// ByName returns the codec for an envelope encoding tag.
func ByName(name string) (Codec, error) {
	switch name {
	case "soap":
		return SOAP{}, nil
	case "binary":
		return Binary{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q", name)
	}
}
