package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json copies into a string
// unescaped: printable characters other than `"`, `\`, `<`, `>` and `&`.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as a JSON string, escaped exactly as
// encoding/json.Marshal escapes it: HTML characters, control bytes and
// U+2028/U+2029 as \u escapes, and each invalid UTF-8 byte as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends a finite f in encoding/json's float64 format:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21 on,
// and no leading zero in a negative exponent.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// AppendSep writes what precedes an element of the list that starts at
// offset list of b: '[' before the first element, ',' before later ones.
func AppendSep(b []byte, list int) []byte {
	if len(b) == list {
		return append(b, '[')
	}
	return append(b, ',')
}

// EndList closes the list that starts at offset list of b. A list with no
// elements is written as null, as encoding/json writes a nil slice.
func EndList(b []byte, list int) []byte {
	if len(b) == list {
		return append(b, `null`...)
	}
	return append(b, ']')
}

// ListLen returns the bytes AppendSep and EndList write around a list of
// n elements.
func ListLen(n int) int {
	if n == 0 {
		return len(`null`)
	}
	return n + 1 // brackets and n-1 commas
}

// StringLen returns the length AppendString writes for s: exact for the
// printable ASCII names documents carry, an upper bound for anything that
// may need escaping.
func StringLen(s string) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || !htmlSafe[c] {
			return 6*len(s) + 2 // \u00XX per byte at most
		}
	}
	return len(s) + 2
}

// FloatLen returns the length AppendFloat writes for f.
func FloatLen(f float64) int {
	var buf [32]byte
	return len(AppendFloat(buf[:0], f))
}
