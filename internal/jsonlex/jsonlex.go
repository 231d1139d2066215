// Package jsonlex is a single-pass JSON lexer over an in-memory body.
// The request decoders of internal/graph and internal/service walk a
// body with it exactly once: members they know are decoded in place,
// members they do not know are skipped (and validated) without being
// stored, and nothing is scanned a second time by a nested decoder.
//
// Its accept set and decoded values are those of encoding/json for the
// same Go types, the contract the differential fuzz targets of both
// callers hold it to: the RFC 8259 grammar with a nesting limit of
// 10000, string unquoting that turns invalid UTF-8 and lone
// surrogates into U+FFFD, and struct-field key matching that tries an
// exact match before a case-insensitive one under Unicode simple
// folding. Integers decode straight from the bytes; a fraction, an
// exponent or an overflow is an error, as it is for encoding/json.
package jsonlex

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is the deepest nesting of arrays and objects accepted,
// counted from the top-level value: encoding/json's limit.
const maxDepth = 10000

// Lexer walks one JSON document held in memory. The zero value is not
// usable; construct with New.
type Lexer struct {
	data  []byte
	pos   int
	depth int
	// scratch holds the last key that needed unquoting.
	scratch []byte
}

// New returns a lexer positioned at the start of data.
func New(data []byte) *Lexer { return &Lexer{data: data} }

// peek skips whitespace and returns the next byte, or 0 at the end.
func (l *Lexer) peek() byte {
	for ; l.pos < len(l.data); l.pos++ {
		switch c := l.data[l.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (l *Lexer) syntaxError(context string) error {
	if l.pos >= len(l.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", l.data[l.pos], context, l.pos)
}

// typeError reports a value that cannot decode into the Go type want.
func (l *Lexer) typeError(want string) error {
	if l.pos >= len(l.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("cannot decode value starting %q into %s at offset %d", l.data[l.pos], want, l.pos)
}

// End checks that nothing but whitespace follows the value just
// consumed: a body is exactly one JSON value.
func (l *Lexer) End() error {
	if l.peek() != 0 || l.pos < len(l.data) {
		return l.syntaxError("after top-level value")
	}
	return nil
}

// Null consumes a null literal if one comes next and reports whether
// it did. Decoding null into a field leaves the field unchanged (and
// empties a slice), as encoding/json does.
func (l *Lexer) Null() bool {
	if l.peek() == 'n' && bytes.HasPrefix(l.data[l.pos:], []byte("null")) {
		l.pos += 4
		return true
	}
	return false
}

// open consumes the opening byte of an array or object.
func (l *Lexer) open(c byte) error {
	if l.peek() != c {
		if c == '{' {
			return l.typeError("object")
		}
		return l.typeError("array")
	}
	l.pos++
	if l.depth++; l.depth > maxDepth {
		return fmt.Errorf("exceeded max depth %d at offset %d", maxDepth, l.pos)
	}
	return nil
}

// Object consumes an object, calling member once per member with its
// unquoted key and the lexer positioned at the member's value, which
// member must consume. The key is valid until member next calls into
// the lexer.
func (l *Lexer) Object(member func(key []byte) error) error {
	if err := l.open('{'); err != nil {
		return err
	}
	if l.peek() == '}' {
		l.pos++
		l.depth--
		return nil
	}
	for {
		key, err := l.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch l.peek() {
		case ',':
			l.pos++
		case '}':
			l.pos++
			l.depth--
			return nil
		default:
			return l.syntaxError("after object key:value pair")
		}
	}
}

// Array consumes an array, calling elem once per element with the
// lexer positioned at it; elem must consume the element.
func (l *Lexer) Array(elem func() error) error {
	if err := l.open('['); err != nil {
		return err
	}
	if l.peek() == ']' {
		l.pos++
		l.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch l.peek() {
		case ',':
			l.pos++
		case ']':
			l.pos++
			l.depth--
			return nil
		default:
			return l.syntaxError("after array element")
		}
	}
}

// key consumes an object key and the colon after it. A key without
// escapes is returned in place; one with escapes is unquoted into the
// scratch buffer.
func (l *Lexer) key() ([]byte, error) {
	if l.peek() != '"' {
		return nil, l.syntaxError("looking for beginning of object key string")
	}
	raw, escaped, err := l.str()
	if err != nil {
		return nil, err
	}
	if l.peek() != ':' {
		return nil, l.syntaxError("after object key")
	}
	l.pos++
	if !escaped {
		return raw, nil
	}
	l.scratch = appendUnquoted(l.scratch[:0], raw)
	return l.scratch, nil
}

// str consumes a string whose opening quote is next and returns the
// bytes between the quotes, validated, and whether they need unquoting:
// an escape or a non-ASCII byte that is not valid UTF-8.
func (l *Lexer) str() (raw []byte, escaped bool, err error) {
	d := l.data
	start, ascii := l.pos+1, true
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			raw = d[start:i]
			l.pos = i + 1
			if !escaped && !ascii && !utf8.Valid(raw) {
				escaped = true
			}
			return raw, escaped, nil
		case c == '\\':
			l.pos = i
			if err := l.escape(); err != nil {
				return nil, false, err
			}
			i, escaped = l.pos, true
		case c < ' ':
			l.pos = i
			return nil, false, l.syntaxError("in string literal")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	l.pos = len(d)
	return nil, false, l.syntaxError("in string literal")
}

// escape validates and consumes one escape sequence.
func (l *Lexer) escape() error {
	l.pos++
	if l.pos >= len(l.data) {
		return l.syntaxError("in string escape code")
	}
	switch l.data[l.pos] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		l.pos++
		return nil
	case 'u':
		l.pos++
		for i := 0; i < 4; i++ {
			if l.pos >= len(l.data) || hexVal(l.data[l.pos]) < 0 {
				return l.syntaxError("in \\u hexadecimal character escape")
			}
			l.pos++
		}
		return nil
	}
	return l.syntaxError("in string escape code")
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

// hex4 decodes the four hex digits after a validated \u.
func hex4(s []byte) rune {
	return hexVal(s[0])<<12 | hexVal(s[1])<<8 | hexVal(s[2])<<4 | hexVal(s[3])
}

var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// appendUnquoted appends the string value of validated string content
// s, exactly as encoding/json unquotes it: a \u high surrogate followed
// by a \u low surrogate is one rune, any other surrogate escape is
// U+FFFD, and every byte of invalid UTF-8 is U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\' && s[r+1] == 'u':
			rr := hex4(s[r+2:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
					if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != utf8.RuneError {
						dst = utf8.AppendRune(dst, dec)
						r += 6
						continue
					}
				}
				rr = utf8.RuneError
			}
			dst = utf8.AppendRune(dst, rr)
		case c == '\\':
			dst = append(dst, unescaped[s[r+1]])
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// DecodeString decodes a string into *dst; null leaves it unchanged.
func (l *Lexer) DecodeString(dst *string) error {
	if l.Null() {
		return nil
	}
	if l.peek() != '"' {
		return l.typeError("string")
	}
	raw, escaped, err := l.str()
	if err != nil {
		return err
	}
	if escaped {
		l.scratch = appendUnquoted(l.scratch[:0], raw)
		raw = l.scratch
	}
	*dst = string(raw)
	return nil
}

// DecodeInt64 decodes an integer into *dst; null leaves it unchanged.
func (l *Lexer) DecodeInt64(dst *int64) error {
	if l.Null() {
		return nil
	}
	v, err := l.integer()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// DecodeInt decodes an integer into *dst; null leaves it unchanged.
func (l *Lexer) DecodeInt(dst *int) error {
	if l.Null() {
		return nil
	}
	v, err := l.integer()
	if err != nil {
		return err
	}
	if int64(int(v)) != v {
		return fmt.Errorf("number %d overflows int", v)
	}
	*dst = int(v)
	return nil
}

// integer consumes a number that must be an int64 literal.
func (l *Lexer) integer() (int64, error) {
	c := l.peek()
	if c != '-' && (c < '0' || c > '9') {
		return 0, l.typeError("integer")
	}
	d, start := l.data, l.pos
	i := start
	if c == '-' {
		i++
	}
	if i >= len(d) || d[i]-'0' > 9 {
		l.pos = i
		return 0, l.syntaxError("in numeric literal")
	}
	var u uint64
	if d[i] == '0' {
		i++
	} else {
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			if u > (1<<63)/10 {
				return 0, rangeError(start)
			}
			u = u*10 + uint64(d[i]-'0')
		}
	}
	l.pos = i
	if i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
		return 0, fmt.Errorf("non-integer number at offset %d", start)
	}
	if c == '-' {
		if u > 1<<63 {
			return 0, rangeError(start)
		}
		return int64(-u), nil
	}
	if u > 1<<63-1 {
		return 0, rangeError(start)
	}
	return int64(u), nil
}

func rangeError(start int) error {
	return fmt.Errorf("number out of int64 range at offset %d", start)
}

// Raw consumes one value, validating it, and returns its bytes.
func (l *Lexer) Raw() ([]byte, error) {
	l.peek() // past whitespace: the value starts at l.pos
	start := l.pos
	if err := l.Skip(); err != nil {
		return nil, err
	}
	return l.data[start:l.pos], nil
}

// Skip consumes one value of any kind, validating it. It walks nested
// values with an explicit stack rather than by recursion, so a deep
// value costs heap, not goroutine stack.
func (l *Lexer) Skip() error {
	var buf [32]byte
	open := buf[:0] // '{' or '[' per container Skip is inside
	for {
		// At the start of a value.
		switch c := l.peek(); {
		case c == '{' || c == '[':
			if err := l.open(c); err != nil {
				return err
			}
			if l.peek() == c+2 { // '}' and ']' follow their openers by 2
				l.pos++
				l.depth--
				break
			}
			open = append(open, c)
			if c == '{' {
				if _, err := l.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := l.str(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if err := l.number(); err != nil {
				return err
			}
		case c == 't':
			if err := l.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := l.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := l.literal("null"); err != nil {
				return err
			}
		default:
			return l.syntaxError("looking for beginning of value")
		}
		// After a value: close finished containers, then either stop or
		// move to the next element or member.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			c := l.peek()
			if c == top+2 {
				l.pos++
				l.depth--
				open = open[:len(open)-1]
				continue
			}
			if c != ',' {
				return l.syntaxError("after value in container")
			}
			l.pos++
			if top == '{' {
				if _, err := l.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

func (l *Lexer) literal(word string) error {
	if !bytes.HasPrefix(l.data[l.pos:], []byte(word)) {
		return l.syntaxError("in literal " + word)
	}
	l.pos += len(word)
	return nil
}

// number consumes a number literal of the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (l *Lexer) number() error {
	if l.data[l.pos] == '-' {
		l.pos++
	}
	if l.pos < len(l.data) && l.data[l.pos] == '0' {
		l.pos++
	} else if !l.digits() {
		return l.syntaxError("in numeric literal")
	}
	if l.pos < len(l.data) && l.data[l.pos] == '.' {
		l.pos++
		if !l.digits() {
			return l.syntaxError("after decimal point in numeric literal")
		}
	}
	if l.pos < len(l.data) && (l.data[l.pos] == 'e' || l.data[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.data) && (l.data[l.pos] == '+' || l.data[l.pos] == '-') {
			l.pos++
		}
		if !l.digits() {
			return l.syntaxError("in exponent of numeric literal")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (l *Lexer) digits() bool {
	start := l.pos
	for l.pos < len(l.data) && '0' <= l.data[l.pos] && l.data[l.pos] <= '9' {
		l.pos++
	}
	return l.pos > start
}

// Field returns the entry of names that key selects, or "" when none
// does. Like encoding/json matching a key to a struct field, an exact
// match wins; otherwise the key matches a name equal to it under
// Unicode simple case folding. names must be ASCII, so the only
// non-ASCII runes that can match are the Kelvin sign U+212A (k) and
// the long s U+017F (s).
func Field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if foldEqual(key, n) {
			return n
		}
	}
	return ""
}

// The two non-ASCII runes whose simple case folding reaches ASCII.
const (
	kelvin = "\u212a" // folds with k and K
	longS  = "\u017f" // folds with s and S
)

func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		want := upper(name[j])
		switch c := key[i]; {
		case c < utf8.RuneSelf:
			if upper(c) != want {
				return false
			}
			i++
		case want == 'K' && bytes.HasPrefix(key[i:], []byte(kelvin)):
			i += len(kelvin)
		case want == 'S' && bytes.HasPrefix(key[i:], []byte(longS)):
			i += len(longS)
		default:
			return false
		}
	}
	return j == len(name)
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// DecodeStrict decodes data, which must hold exactly one JSON value,
// into v with encoding/json. Unknown object fields are errors, and so
// is any byte after the value other than whitespace.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest := Lexer{data: data, pos: int(dec.InputOffset())}
	return rest.End()
}
