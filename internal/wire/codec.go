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
	// Encode serializes a Go value.
	Encode(v interface{}) ([]byte, error)
	// DecodeGeneric parses a stream into the generic model — the
	// path taken when the receiver does not (yet) know the type.
	DecodeGeneric(data []byte) (Value, error)
	// Decode materializes a stream into a Go value of type t,
	// translating field names through resolve (nil = identity).
	Decode(data []byte, t reflect.Type, resolve FieldResolver) (interface{}, error)
	// EncodeCompiled appends the encoding of v to dst through prog's
	// compiled fast path, transparently falling back to the
	// reflective path when prog is nil, not direct, or does not match
	// v's type. dst may be nil; reusing it across calls makes the
	// steady-state encode allocation-free.
	EncodeCompiled(prog *Program, dst []byte, v interface{}) ([]byte, error)
	// DecodeCompiled materializes a stream into a Go value of type t
	// through prog's compiled materializer, with the same transparent
	// fallback. fp fingerprints the resolver's behaviour for
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

// Encode implements Codec.
func (SOAP) Encode(v interface{}) ([]byte, error) {
	return reflectEncode(nil, nil, v, EncodeSOAP)
}

// DecodeGeneric implements Codec.
func (SOAP) DecodeGeneric(data []byte) (Value, error) {
	return DecodeSOAP(data)
}

// Decode implements Codec.
func (SOAP) Decode(data []byte, t reflect.Type, resolve FieldResolver) (interface{}, error) {
	gv, err := DecodeSOAP(data)
	if err != nil {
		return nil, err
	}
	return ToGo(gv, t, resolve)
}

// EncodeCompiled implements Codec.
func (SOAP) EncodeCompiled(prog *Program, dst []byte, v interface{}) ([]byte, error) {
	if prog != nil && prog.Direct() {
		out, ok, err := prog.AppendSOAP(dst, v)
		if ok {
			return out, err
		}
	}
	return reflectEncode(prog, dst, v, EncodeSOAP)
}

// DecodeCompiled implements Codec.
func (c SOAP) DecodeCompiled(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp string) (interface{}, error) {
	if prog != nil {
		if out, ok := prog.DecodeSOAP(data, t, resolve, fp); ok {
			return out, nil
		}
	}
	return c.Decode(data, t, resolve)
}

// DecodeObjectFast implements Codec.
func (SOAP) DecodeObjectFast(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp, srcName string) (interface{}, bool) {
	if prog == nil {
		return nil, false
	}
	return prog.DecodeSOAPObject(data, t, resolve, fp, srcName)
}

// Name implements Codec.
func (Binary) Name() string { return "binary" }

// Encode implements Codec.
func (Binary) Encode(v interface{}) ([]byte, error) {
	return reflectEncode(nil, nil, v, EncodeBinary)
}

// DecodeGeneric implements Codec.
func (Binary) DecodeGeneric(data []byte) (Value, error) {
	return DecodeBinary(data)
}

// Decode implements Codec.
func (Binary) Decode(data []byte, t reflect.Type, resolve FieldResolver) (interface{}, error) {
	gv, err := DecodeBinary(data)
	if err != nil {
		return nil, err
	}
	return ToGo(gv, t, resolve)
}

// EncodeCompiled implements Codec.
func (Binary) EncodeCompiled(prog *Program, dst []byte, v interface{}) ([]byte, error) {
	if prog != nil && prog.Direct() {
		out, ok, err := prog.AppendBinary(dst, v)
		if ok {
			return out, err
		}
	}
	return reflectEncode(prog, dst, v, EncodeBinary)
}

// reflectEncode is the reflective encoder behind Encode and
// EncodeCompiled's fallback: v's generic value tree, its root stamped
// with prog's wire name (nil prog: the Go spelling), rendered by
// encode. It returns the exact-size result directly when the caller
// brought no buffer to append into.
func reflectEncode(prog *Program, dst []byte, v interface{}, encode func(Value) ([]byte, error)) ([]byte, error) {
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

// DecodeCompiled implements Codec.
func (c Binary) DecodeCompiled(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp string) (interface{}, error) {
	if prog != nil {
		if out, ok := prog.DecodeBinary(data, t, resolve, fp); ok {
			return out, nil
		}
	}
	return c.Decode(data, t, resolve)
}

// DecodeObjectFast implements Codec.
func (Binary) DecodeObjectFast(prog *Program, data []byte, t reflect.Type, resolve FieldResolver, fp, srcName string) (interface{}, bool) {
	if prog == nil {
		return nil, false
	}
	return prog.DecodeBinaryObject(data, t, resolve, fp, srcName)
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
