package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pti/internal/bufpool"
)

// This file implements the compact binary encoding — the paper's
// alternative to SOAP for serializing "efficiently the whole object"
// (Section 6.2). The format is a self-describing tag-length-value
// stream: type and field names travel with the data, so an unknown
// type can still be decoded into a generic Object.
//
// Grammar (all integers varint unless noted):
//
//	value   := tag payload
//	tag     := byte
//	nil     : (no payload)
//	bool    : byte(0|1)
//	int     : zigzag varint
//	uint    : varint
//	float   : 8 bytes IEEE-754 big endian
//	string  : len bytes
//	bytes   : len bytes
//	object  : name(string) id(varint) nfields(varint) {name value}*
//	list    : elemType(string) n(varint) value*
//	map     : keyType elemType n(varint) {value value}*
//	ref     : id(varint)

const binMagic = 0xB7 // stream header byte: catches non-PTI streams early

// Binary value tags.
const (
	tagNil byte = iota + 1
	tagBool
	tagInt
	tagUint
	tagFloat
	tagString
	tagBytes
	tagObject
	tagList
	tagMap
	tagRef
)

// EncodeBinary renders a generic value as a compact binary stream.
// The working buffer is pooled; only the exact-size result slice is
// allocated.
func EncodeBinary(v Value) ([]byte, error) {
	buf := bufpool.Get()
	buf.WriteByte(binMagic)
	if err := binWrite(buf, v); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return bufpool.Finish(buf), nil
}

func binWrite(buf *bufpool.Buffer, v Value) error {
	switch x := v.(type) {
	case nil:
		buf.WriteByte(tagNil)
	case bool:
		buf.WriteByte(tagBool)
		if x {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case int64:
		buf.WriteByte(tagInt)
		writeUvarint(buf, zigzag(x))
	case uint64:
		buf.WriteByte(tagUint)
		writeUvarint(buf, x)
	case float64:
		buf.WriteByte(tagFloat)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
		buf.Write(b[:])
	case string:
		buf.WriteByte(tagString)
		writeString(buf, x)
	case []byte:
		buf.WriteByte(tagBytes)
		writeUvarint(buf, uint64(len(x)))
		buf.Write(x)
	case *Object:
		buf.WriteByte(tagObject)
		writeString(buf, x.TypeName)
		writeUvarint(buf, uint64(x.ID))
		writeUvarint(buf, uint64(len(x.Fields)))
		for _, f := range x.Fields {
			writeString(buf, f.Name)
			if err := binWrite(buf, f.Value); err != nil {
				return err
			}
		}
	case *List:
		buf.WriteByte(tagList)
		writeString(buf, x.ElemType)
		writeUvarint(buf, uint64(len(x.Items)))
		for _, item := range x.Items {
			if err := binWrite(buf, item); err != nil {
				return err
			}
		}
	case *Map:
		buf.WriteByte(tagMap)
		writeString(buf, x.KeyType)
		writeString(buf, x.ElemType)
		writeUvarint(buf, uint64(len(x.Entries)))
		for _, e := range x.Entries {
			if err := binWrite(buf, e.Key); err != nil {
				return err
			}
			if err := binWrite(buf, e.Value); err != nil {
				return err
			}
		}
	case *Ref:
		buf.WriteByte(tagRef)
		writeUvarint(buf, uint64(x.ID))
	default:
		return fmt.Errorf("wire: unsupported value: %T", v)
	}
	return nil
}

// DecodeBinary parses a stream produced by EncodeBinary.
func DecodeBinary(data []byte) (Value, error) {
	r := bytes.NewReader(data)
	magic, err := r.ReadByte()
	if err != nil || magic != binMagic {
		return nil, fmt.Errorf("%w: missing magic byte", ErrBadStream)
	}
	v, err := binRead(r, 0)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadStream, r.Len())
	}
	return v, nil
}

// maxBinDepth bounds nesting so corrupt streams cannot exhaust the
// stack.
const maxBinDepth = 1000

func binRead(r *bytes.Reader, depth int) (Value, error) {
	if depth > maxBinDepth {
		return nil, fmt.Errorf("%w: nesting too deep", ErrBadStream)
	}
	tag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated (tag)", ErrBadStream)
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagBool:
		b, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: truncated bool", ErrBadStream)
		}
		return b != 0, nil
	case tagInt:
		u, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated int", ErrBadStream)
		}
		return unzigzag(u), nil
	case tagUint:
		u, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated uint", ErrBadStream)
		}
		return u, nil
	case tagFloat:
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated float", ErrBadStream)
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b[:])), nil
	case tagString:
		return readString(r)
	case tagBytes:
		n, err := readLen(r)
		if err != nil {
			return nil, err
		}
		out := make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			return nil, fmt.Errorf("%w: truncated bytes", ErrBadStream)
		}
		return out, nil
	case tagObject:
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated object id", ErrBadStream)
		}
		nfields, err := readLen(r)
		if err != nil {
			return nil, err
		}
		obj := &Object{TypeName: name, ID: int(id)}
		for i := 0; i < nfields; i++ {
			fname, err := readString(r)
			if err != nil {
				return nil, err
			}
			fv, err := binRead(r, depth+1)
			if err != nil {
				return nil, err
			}
			obj.Fields = append(obj.Fields, FieldValue{Name: fname, Value: fv})
		}
		return obj, nil
	case tagList:
		elemType, err := readString(r)
		if err != nil {
			return nil, err
		}
		n, err := readLen(r)
		if err != nil {
			return nil, err
		}
		list := &List{ElemType: elemType}
		for i := 0; i < n; i++ {
			item, err := binRead(r, depth+1)
			if err != nil {
				return nil, err
			}
			list.Items = append(list.Items, item)
		}
		return list, nil
	case tagMap:
		keyType, err := readString(r)
		if err != nil {
			return nil, err
		}
		elemType, err := readString(r)
		if err != nil {
			return nil, err
		}
		n, err := readLen(r)
		if err != nil {
			return nil, err
		}
		m := &Map{KeyType: keyType, ElemType: elemType}
		for i := 0; i < n; i++ {
			k, err := binRead(r, depth+1)
			if err != nil {
				return nil, err
			}
			v, err := binRead(r, depth+1)
			if err != nil {
				return nil, err
			}
			m.Entries = append(m.Entries, Entry{Key: k, Value: v})
		}
		return m, nil
	case tagRef:
		id, err := binary.ReadUvarint(r)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("%w: bad ref", ErrBadStream)
		}
		return &Ref{ID: int(id)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrBadStream, tag)
	}
}

func writeUvarint(buf *bufpool.Buffer, u uint64) {
	buf.B = binary.AppendUvarint(buf.B, u)
}

func writeString(buf *bufpool.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	n, err := readLen(r)
	if err != nil {
		return "", err
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return "", fmt.Errorf("%w: truncated string", ErrBadStream)
	}
	return string(out), nil
}

// readLen reads a varint length and sanity-checks it against the
// bytes remaining so corrupt lengths cannot trigger huge allocations.
func readLen(r *bytes.Reader) (int, error) {
	u, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: truncated length", ErrBadStream)
	}
	if u > uint64(r.Len()) {
		return 0, fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrBadStream, u, r.Len())
	}
	return int(u), nil
}

func zigzag(n int64) uint64 {
	return uint64((n << 1) ^ (n >> 63))
}

func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}
