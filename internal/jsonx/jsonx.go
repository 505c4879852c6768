// Package jsonx reads and writes the JSON of flock's hottest shapes
// without reflection: the crawl's timeline pages, both legs of every
// Perspective exchange (the request and the reply, on the crawler and in
// toxsvc) and the dataset's timeline rows. It holds a Scanner over a
// byte slice and a few appenders, and uses only the standard library.
//
// Its contract is agreement with encoding/json, which stays the
// reference and the fallback. A Scanner reads a value only where it
// gives exactly what encoding/json decodes into a zero value of the
// caller's type. On anything else it declines: a syntax error, a type
// mismatch, a repeated field, a key that encoding/json might match to a
// field by case folding, nesting deeper than maxDepth. The caller then
// decodes the same bytes with encoding/json. The appenders write the
// bytes encoding/json writes with HTML escaping on, as json.Marshal and
// json.Encoder do by default.
package jsonx

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth bounds the nesting of objects and arrays a Scanner reads,
// far below encoding/json's 10,000: deeper input declines.
const maxDepth = 64

// A Scanner reads JSON values front to back from a byte slice. Each read
// checks the JSON grammar of what it reads. On input it cannot read
// exactly as encoding/json would, the Scanner declines: Declined reports
// true from then on, and every later read returns a zero value. The
// strings it returns are copies, so the slice may be reused afterwards.
type Scanner struct {
	data     []byte
	pos      int
	depth    int
	declined bool
}

// NewScanner returns a Scanner at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Declined reports whether s has declined its input.
func (s *Scanner) Declined() bool { return s.declined }

func (s *Scanner) decline() { s.declined, s.pos = true, len(s.data) }

// next skips whitespace and returns the next byte without reading it,
// or 0 at the end of the input.
func (s *Scanner) next() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// End declines unless only whitespace is left, and reports whether s
// read its input without declining.
func (s *Scanner) End() bool {
	if s.next(); s.pos != len(s.data) {
		s.decline()
	}
	return !s.declined
}

// Null reads a null and reports true, or reads nothing and reports false
// when the next value is not null.
func (s *Scanner) Null() bool { return s.literal("null") }

func (s *Scanner) literal(lit string) bool {
	if s.next() == lit[0] && len(s.data)-s.pos >= len(lit) && string(s.data[s.pos:s.pos+len(lit)]) == lit {
		s.pos += len(lit)
		return true
	}
	return false
}

// String reads a string, unquoted as encoding/json unquotes it: escapes,
// surrogate pairs, and U+FFFD for each byte of invalid UTF-8. A null
// reads as "", which is what encoding/json leaves in a zero string.
func (s *Scanner) String() string {
	if s.Null() {
		return ""
	}
	raw, ok := s.token()
	if !ok {
		return ""
	}
	return unquote(raw[1 : len(raw)-1])
}

// Float reads a number as encoding/json reads a float64: the JSON number
// grammar, then strconv.ParseFloat. A null reads as 0; a number out of
// range declines, as encoding/json refuses it.
func (s *Scanner) Float() float64 {
	if s.Null() {
		return 0
	}
	raw := s.number()
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		s.decline()
		return 0
	}
	return f
}

// Time reads a time as encoding/json does, through
// time.Time.UnmarshalJSON on the raw string token, escapes and all. A
// null reads as the zero time; a string UnmarshalJSON refuses declines.
func (s *Scanner) Time() time.Time {
	var t time.Time
	if s.Null() {
		return t
	}
	if raw, ok := s.token(); ok && t.UnmarshalJSON(raw) != nil {
		s.decline()
	}
	return t
}

// Object reads an object. For a key that is exactly fields[i] it calls
// value(i), which must read the key's value; it checks and skips the
// value of any other key. A null reads as an object with no keys, which
// is what encoding/json makes of null for a struct.
//
// It declines an object that repeats one of fields, and one with a key
// that encoding/json might match to a field other than exactly: a key
// with an escape or a byte beyond ASCII, or one equal to a field under
// case folding. fields holds at most 64 ASCII names.
func (s *Scanner) Object(fields []string, value func(i int)) {
	if s.Null() {
		return
	}
	var seen uint64
	s.list('{', '}', func() {
		raw, ok := s.token()
		if !ok {
			return
		}
		if s.next() != ':' {
			s.decline()
			return
		}
		s.pos++
		switch i := match(fields, raw[1:len(raw)-1]); {
		case i == unknown:
			s.skip()
		case i == ambiguous || seen&(1<<i) != 0:
			s.decline()
		default:
			seen |= 1 << i
			value(i)
		}
	})
}

// Slice reads an array, each element with elem, as encoding/json decodes
// an array into a nil slice: null gives nil and [] an empty, non-nil
// slice.
func Slice[T any](s *Scanner, elem func(*T)) []T {
	if s.Null() {
		return nil
	}
	out := []T{}
	s.list('[', ']', func() {
		var zero T
		out = append(out, zero)
		elem(&out[len(out)-1])
	})
	return out
}

// list reads an array or object from its open bracket to its close,
// calling each to read every element or member.
func (s *Scanner) list(open, close byte, each func()) {
	if s.next() != open || s.depth == maxDepth {
		s.decline()
		return
	}
	s.pos++
	s.depth++
	for more := s.next() != close; more && !s.declined; {
		each()
		switch s.next() {
		case ',':
			s.pos++
		case close:
			more = false
		default:
			s.decline()
		}
	}
	if !s.declined {
		s.pos++
	}
	s.depth--
}

// skip checks and skips one value of any kind.
func (s *Scanner) skip() {
	switch c := s.next(); c {
	case '{':
		s.Object(nil, nil)
	case '[':
		s.list('[', ']', s.skip)
	case '"':
		s.token()
	case 't', 'f', 'n':
		if !s.literal("true") && !s.literal("false") && !s.literal("null") {
			s.decline()
		}
	default:
		s.number()
	}
}

// token reads a string token and returns it with its quotes, checking
// its escapes and that it holds no control character.
func (s *Scanner) token() ([]byte, bool) {
	if s.next() != '"' {
		s.decline()
		return nil, false
	}
	d := s.data
	for i := s.pos + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			raw := d[s.pos : i+1]
			s.pos = i + 1
			return raw, true
		case c < 0x20:
			i = len(d)
		case c == '\\' && i+1 < len(d):
			i++
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if getu4(d[i-1:]) < 0 {
					i = len(d)
				}
				i += 4
			default:
				i = len(d)
			}
		}
	}
	s.decline()
	return nil, false
}

// number reads a number token by the JSON grammar.
func (s *Scanner) number() []byte {
	s.next()
	d, i := s.data, s.pos
	digits := func() bool {
		start := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	ok := i < len(d) && d[i] == '0'
	if ok {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(d) && d[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		s.decline()
		return nil
	}
	raw := d[s.pos:i]
	s.pos = i
	return raw
}

// What match returns for a key no field takes, and for one that
// encoding/json might match to a field other than exactly.
const (
	unknown   = -1
	ambiguous = -2
)

// match returns the index of key in fields, unknown or ambiguous. With
// no fields every key is unknown.
func match(fields []string, key []byte) int {
	if len(fields) == 0 {
		return unknown
	}
	for _, c := range key {
		if c == '\\' || c >= utf8.RuneSelf {
			return ambiguous
		}
	}
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			return ambiguous
		}
	}
	return unknown
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote unquotes the contents of a string token that token checked,
// as encoding/json's unquoteBytes does.
func unquote(s []byte) string {
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return string(s)
	}
	var b strings.Builder
	b.Grow(len(s) + 2*utf8.UTFMax)
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			r++
			switch s[r] {
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				rr := getu4(s[r-1:])
				r += 4
				if utf16.IsSurrogate(rr) {
					rr = utf16.DecodeRune(rr, getu4(s[r+1:]))
					if rr != unicode.ReplacementChar {
						r += 6 // the pair's second half
					}
				}
				b.WriteRune(rr)
			default: // '"', '\\' and '/'
				b.WriteByte(s[r])
			}
			r++
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b.WriteRune(rr)
		}
	}
	return b.String()
}

// AppendString appends s as a JSON string, as encoding/json writes it
// with HTML escaping on: <, > and & as \u003c, \u003e and \u0026, each
// byte of invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json writes a float64, and reports
// false, appending nothing, for NaN and ±Inf, which encoding/json
// refuses.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Write e-09 as e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// AppendTime appends t as encoding/json writes a time.Time, and reports
// false, appending nothing, for a time it refuses: one outside the years
// 0 to 9999, or with a zone offset of a day or more.
func AppendTime(b []byte, t time.Time) ([]byte, bool) {
	out, err := t.AppendText(append(b, '"'))
	if err != nil {
		return b, false
	}
	return append(out, '"'), true
}
