// Package guid provides 128-bit type identities in the role of the
// .NET GUIDs the paper relies on for type identity (Section 5,
// footnote 5: ".NET provides globally unique identifiers (GUID) of 128
// bits long for types").
//
// Two flavours are provided:
//
//   - Random GUIDs (version-4 style) for freshly minted identities.
//   - Deterministic GUIDs derived from a canonical string (the
//     structural fingerprint of a type), so that the same structural
//     type minted on two independent peers receives the same identity.
//     This mirrors how the paper's receiver can recognise "objects of
//     the same type [that] might have already been received before"
//     (Section 6.1) without a central authority.
package guid

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// GUID is a 128-bit identifier. The zero value is the nil GUID and is
// treated as "no identity".
type GUID [16]byte

// Nil is the zero GUID.
var Nil GUID

// New returns a fresh random GUID. It never returns Nil.
func New() GUID {
	var g GUID
	if _, err := rand.Read(g[:]); err != nil {
		// crypto/rand failure is unrecoverable program state; this
		// mirrors stdlib uuid-like libraries.
		panic(fmt.Sprintf("guid: crypto/rand unavailable: %v", err))
	}
	// Tag as a version-4/variant-1 style identifier so the textual
	// form is recognisable, and so it can never be Nil.
	g[6] = (g[6] & 0x0f) | 0x40
	g[8] = (g[8] & 0x3f) | 0x80
	return g
}

// Derive returns the deterministic GUID of the given canonical string.
// Equal inputs yield equal GUIDs on every platform.
func Derive(canonical string) GUID {
	sum := sha256.Sum256([]byte(canonical))
	var g GUID
	copy(g[:], sum[:16])
	// Tag as a "version 5"-like name-derived identifier.
	g[6] = (g[6] & 0x0f) | 0x50
	g[8] = (g[8] & 0x3f) | 0x80
	return g
}

// IsNil reports whether g is the zero GUID.
func (g GUID) IsNil() bool { return g == Nil }

// String renders g in canonical 8-4-4-4-12 hexadecimal form.
func (g GUID) String() string {
	var buf [36]byte
	hex.Encode(buf[0:8], g[0:4])
	buf[8] = '-'
	hex.Encode(buf[9:13], g[4:6])
	buf[13] = '-'
	hex.Encode(buf[14:18], g[6:8])
	buf[18] = '-'
	hex.Encode(buf[19:23], g[8:10])
	buf[23] = '-'
	hex.Encode(buf[24:36], g[10:16])
	return string(buf[:])
}

// Parse parses the canonical 8-4-4-4-12 form (case-insensitive),
// optionally wrapped in braces, and the plain 32-hex-digit form.
func Parse(s string) (GUID, error) {
	if len(s) >= 2 && s[0] == '{' && s[len(s)-1] == '}' {
		s = s[1 : len(s)-1]
	}
	if len(s) == 36 && s[8] == '-' && s[13] == '-' && s[18] == '-' && s[23] == '-' {
		s = s[0:8] + s[9:13] + s[14:18] + s[19:23] + s[24:36]
	}
	var g GUID
	if len(s) == 2*len(g) {
		if _, err := hex.Decode(g[:], []byte(s)); err == nil {
			return g, nil
		}
	}
	return Nil, errors.New("guid: invalid format")
}

// MarshalText implements encoding.TextMarshaler.
func (g GUID) MarshalText() ([]byte, error) {
	return []byte(g.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (g *GUID) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*g = parsed
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (g GUID) MarshalBinary() ([]byte, error) {
	out := make([]byte, 16)
	copy(out, g[:])
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (g *GUID) UnmarshalBinary(data []byte) error {
	if len(data) != 16 {
		return errors.New("guid: invalid format")
	}
	copy(g[:], data)
	return nil
}
