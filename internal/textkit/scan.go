package textkit

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Cut is the pair of cut sets NextWord strips from the two ends of every
// word. It is read-only once made, so one Cut may be shared by any number
// of goroutines.
type Cut struct {
	left, right string
	// l and r hold the bytes of left and right. Only ASCII fields are
	// tested against them, and an ASCII byte is cut exactly when it
	// occurs in the cut string, whatever else that string holds.
	l, r byteSet
}

// byteSet is a 256-bit set of bytes.
type byteSet [4]uint64

func (s *byteSet) add(c byte)      { s[c>>6] |= 1 << (c & 63) }
func (s *byteSet) has(c byte) bool { return s[c>>6]&(1<<(c&63)) != 0 }

// NewCut returns the Cut that strips any character of left from the start
// of a word and any character of right from its end.
func NewCut(left, right string) *Cut {
	c := &Cut{left: left, right: right}
	for i := 0; i < len(left); i++ {
		c.l.add(left[i])
	}
	for i := 0; i < len(right); i++ {
		c.r.add(right[i])
	}
	return c
}

// asciiSpace marks the ASCII bytes strings.Fields splits on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// NextWord is the word cursor over text: it returns the first word that
// starts at or after byte offset i and the offset to resume from, or
// next < 0 when text holds no more words. The words of text are exactly,
// in order, those of
//
//	for _, f := range strings.Fields(text) {
//		w := strings.TrimRight(strings.TrimLeft(strings.ToLower(f), cut.left), cut.right)
//		if w != "" {
//			yield(w)
//		}
//	}
//
// and they are listed with
//
//	var arr [64]byte
//	for w, i := NextWord(text, 0, cut, arr[:0]); i >= 0; w, i = NextWord(text, i, cut, arr[:0]) {
//		...
//	}
//
// An ASCII field is lowercased byte by byte into buf, and its ends are
// cut through the Cut's byte sets. A field holding any byte >= 0x80 goes
// through strings.ToLower, TrimLeft and TrimRight themselves, so
// non-ASCII text is exact by construction. The word lives in buf's
// storage (or in a larger slice, when buf is too small) and is valid
// until the next call.
//
// NextWord is a cursor rather than a callback or an iterator so that the
// caller's buffer does not escape: with arr declared as above, a scan of
// ASCII words up to 64 bytes long allocates nothing. Look a word up with
// m[string(w)], which does not allocate either.
func NextWord(text string, i int, cut *Cut, buf []byte) (word []byte, next int) {
	for {
		// Step over the spaces before the next field.
		for i < len(text) {
			if c := text[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
			} else if r, n := utf8.DecodeRuneInString(text[i:]); unicode.IsSpace(r) {
				i += n
			} else {
				break
			}
		}
		if i >= len(text) {
			return nil, -1
		}
		start, ascii := i, true
		for i < len(text) {
			if c := text[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
			} else if r, n := utf8.DecodeRuneInString(text[i:]); !unicode.IsSpace(r) {
				ascii = false
				i += n
			} else {
				break
			}
		}
		if w := cut.word(text[start:i], ascii, buf); len(w) > 0 {
			return w, i
		}
	}
}

// word lowercases the field f into buf and cuts its ends; ascii reports
// whether f is all ASCII.
func (c *Cut) word(f string, ascii bool, buf []byte) []byte {
	if !ascii {
		return append(buf[:0], strings.TrimRight(strings.TrimLeft(strings.ToLower(f), c.left), c.right)...)
	}
	lo, hi := 0, len(f)
	for lo < hi && c.l.has(lower(f[lo])) {
		lo++
	}
	for hi > lo && c.r.has(lower(f[hi-1])) {
		hi--
	}
	buf = append(buf[:0], f[lo:hi]...)
	for j, b := range buf {
		buf[j] = lower(b)
	}
	return buf
}

// lower lowercases an ASCII byte.
func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
