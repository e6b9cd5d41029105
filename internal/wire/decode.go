// Package wire holds the reflection-free JSON pieces behind the spec and
// schedule documents: a validating single-pass reader and appenders whose
// output matches encoding/json byte for byte.
//
// The reader accepts exactly the JSON grammar encoding/json accepts,
// including its nesting limit, and unquotes strings the way it does:
// invalid UTF-8 and unpaired surrogate escapes become U+FFFD. Callers walk
// the document with BeginObject/Key and BeginArray/Next, read scalars with
// String and Number, and Skip values they do not know.
package wire

import (
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a document may nest objects
// and arrays this deep, one more is a syntax error.
const maxDepth = 10000

// SyntaxError reports malformed JSON.
type SyntaxError struct{ msg string }

func (e *SyntaxError) Error() string { return e.msg }

// Decoder reads one JSON document held in memory.
type Decoder struct {
	data  []byte
	off   int
	depth int
	// first is set by BeginObject/BeginArray and cleared once the first
	// member is read or the container ends, so Key and Next know whether
	// a comma must come first.
	first bool
	buf   []byte            // unescaped form of the last string that needed it
	names map[string]string // interned strings
}

// NewDecoder returns a reader positioned at the start of data.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data, names: make(map[string]string)}
}

// unexpected reports the byte at the read position, or the end of input.
func (d *Decoder) unexpected(context string) error {
	if d.off >= len(d.data) {
		return &SyntaxError{"unexpected end of JSON input"}
	}
	return &SyntaxError{fmt.Sprintf("invalid character %q %s", d.data[d.off], context)}
}

func (d *Decoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// Peek returns the first byte of the next value without consuming it, or
// 0 at the end of input.
func (d *Decoder) Peek() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off] // compact documents take this inlined path
	}
	d.skipSpace()
	if d.off >= len(d.data) {
		return 0
	}
	return d.data[d.off]
}

// End checks that nothing but white space follows the top-level value.
func (d *Decoder) End() error {
	d.skipSpace()
	if d.off < len(d.data) {
		return d.unexpected("after top-level value")
	}
	return nil
}

func (d *Decoder) open(c byte) error {
	if d.Peek() != c {
		return d.unexpected("looking for beginning of value")
	}
	d.off++
	d.depth++
	if d.depth > maxDepth {
		return &SyntaxError{"exceeded max depth"}
	}
	d.first = true
	return nil
}

// next reports whether another member of the container closed by c
// follows, consuming the separating comma or the closing byte.
func (d *Decoder) next(c byte, context string) (bool, error) {
	b, first := d.Peek(), d.first
	d.first = false
	switch {
	case b == c:
		d.off++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case b == ',':
		d.off++
		return true, nil
	}
	return false, d.unexpected(context)
}

// BeginObject consumes the opening brace of an object.
func (d *Decoder) BeginObject() error { return d.open('{') }

// Key reads the next member name of the current object and its colon. It
// returns false once the closing brace is consumed. The key is valid until
// the next read.
func (d *Decoder) Key() ([]byte, bool, error) {
	more, err := d.next('}', "after object key:value pair")
	if !more || err != nil {
		return nil, false, err
	}
	if d.Peek() != '"' {
		return nil, false, d.unexpected("looking for beginning of object key string")
	}
	key, err := d.String()
	if err != nil {
		return nil, false, err
	}
	if d.Peek() != ':' {
		return nil, false, d.unexpected("after object key")
	}
	d.off++
	return key, true, nil
}

// BeginArray consumes the opening bracket of an array.
func (d *Decoder) BeginArray() error { return d.open('[') }

// Next reports whether another element of the current array follows. It
// returns false once the closing bracket is consumed.
func (d *Decoder) Next() (bool, error) {
	return d.next(']', "after array element")
}

// Intern returns b as a string, allocating each distinct value once per
// decoder.
func (d *Decoder) Intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	d.names[s] = s
	return s
}

// String reads a string value and returns its unquoted bytes, valid until
// the next read.
func (d *Decoder) String() ([]byte, error) {
	if d.Peek() != '"' {
		return nil, d.unexpected("looking for beginning of value")
	}
	d.off++
	start := d.off
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case plain[c]:
			d.off++
		case c == '"':
			d.off++
			return d.data[start : d.off-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < ' ':
			return nil, d.unexpected("in string literal")
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.off += size
		}
	}
	return nil, d.unexpected("")
}

// plain marks the ASCII bytes a string holds as they are.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes a string whose bytes from start to the read position
// are plain, decoding escapes and replacing invalid UTF-8 with U+FFFD.
func (d *Decoder) unescape(start int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:d.off]...)
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			d.buf = b
			return b, nil
		case c == '\\':
			if d.off+1 >= len(d.data) {
				d.off = len(d.data)
				return nil, d.unexpected("")
			}
			e := d.data[d.off+1]
			switch e {
			case '"', '\\', '/':
			case 'b':
				e = '\b'
			case 'f':
				e = '\f'
			case 'n':
				e = '\n'
			case 'r':
				e = '\r'
			case 't':
				e = '\t'
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// Pair with a following \u escape, as encoding/json
					// does; a lone half decodes to U+FFFD.
					dec := unicode.ReplacementChar
					if r2, ok := d.peekHex4(); ok {
						dec = utf16.DecodeRune(r, r2)
					}
					if dec != unicode.ReplacementChar {
						d.off += 6
					}
					r = dec
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off++
				return nil, d.unexpected("in string escape code")
			}
			b = append(b, e)
			d.off += 2
		case c < ' ':
			return nil, d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += size
		}
	}
	return nil, d.unexpected("")
}

// hex4 consumes the \uXXXX escape at the read position.
func (d *Decoder) hex4() (rune, error) {
	d.off += 2
	var r rune
	for i := 0; i < 4; i++ {
		if d.off >= len(d.data) {
			return 0, d.unexpected("")
		}
		v := hexVal(d.data[d.off])
		if v < 0 {
			return 0, d.unexpected(`in \u hexadecimal character escape`)
		}
		r = r<<4 | v
		d.off++
	}
	return r, nil
}

// peekHex4 decodes a well-formed \uXXXX escape at the read position
// without consuming it.
func (d *Decoder) peekHex4() (rune, bool) {
	s := d.data[d.off:]
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexVal(c)
		if v < 0 {
			return 0, false
		}
		r = r<<4 | v
	}
	return r, true
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// Number reads a number value and returns its text, checked against the
// JSON number grammar.
func (d *Decoder) Number() ([]byte, error) {
	d.skipSpace()
	start := d.off
	n := numberLen(d.data[d.off:])
	if n <= 0 {
		d.off -= n
		if d.off == start {
			return nil, d.unexpected("looking for beginning of value")
		}
		return nil, d.unexpected("in numeric literal")
	}
	d.off += n
	return d.data[start:d.off], nil
}

// numberLen returns the length of the JSON number at the start of s. On a
// malformed number it returns minus the offset of the offending byte.
func numberLen(s []byte) int {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i+1)
	default:
		return -i
	}
	if i < len(s) && s[i] == '.' {
		j := digits(s, i+1)
		if j == i+1 {
			return -j
		}
		i = j
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := digits(s, i)
		if j == i {
			return -j
		}
		i = j
	}
	return i
}

func digits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// IsNumber reports whether s is exactly one JSON number.
func IsNumber(s []byte) bool { return len(s) > 0 && numberLen(s) == len(s) }

// Skip reads and discards one value of any kind.
func (d *Decoder) Skip() error {
	switch d.Peek() {
	case '{':
		if err := d.BeginObject(); err != nil {
			return err
		}
		for {
			_, more, err := d.Key()
			if !more || err != nil {
				return err
			}
			if err := d.Skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.BeginArray(); err != nil {
			return err
		}
		for {
			more, err := d.Next()
			if !more || err != nil {
				return err
			}
			if err := d.Skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.String()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.Number()
	return err
}

func (d *Decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off >= len(d.data) || d.data[d.off] != lit[i] {
			return d.unexpected("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// Field returns the index of the name a member key selects, matching the
// way encoding/json matches a key to a struct field: exactly, or else
// under Unicode simple case folding. names must be distinct under folding
// and lower-case ASCII. It returns -1 when no name matches.
func Field(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(key, n) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to the lower-case ASCII name: each
// rune of key must fold to the upper-case form of the name's next byte.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j >= len(name) {
			return false
		}
		want := rune(name[j] - 'a' + 'A')
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if rune(c) != want {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if foldRune(r) != want {
			return false
		}
		i += n
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's simple folding orbit, the
// canonical form encoding/json folds non-ASCII key runes to.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// Offset returns the number of bytes read so far.
func (d *Decoder) Offset() int64 { return int64(d.off) }
