package xmlenc

import (
	"encoding/base64"
	"strings"
)

// base64Decode is tolerant of the whitespace XML indentation inserts
// around character data.
func base64Decode(s string) ([]byte, error) {
	s = strings.TrimSpace(s)
	// Indented documents may carry embedded newlines and spaces.
	s = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\n', '\t', '\r':
			return -1
		}
		return r
	}, s)
	return base64.StdEncoding.DecodeString(s)
}
