package jsonx

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSkipAgreesWithValid: a Scanner skipping an object of unknown keys
// accepts exactly the objects json.Valid accepts, up to maxDepth levels
// of nesting.
func TestSkipAgreesWithValid(t *testing.T) {
	deep := func(n int) string { return `{"a":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}` }
	for _, in := range []string{
		`{}`, ` { } `, `{"a":1}`, `{"a":-0.5e+10,"b":[true,false,null,"x",{}],"c":{"d":[]}}`,
		`{"a":"\"\\\/\b\f\n\r\té😀"}`, "{\"\xff\":\"\xfe\"}", `{"A":1,"a":2,"a":3}`,
		deep(maxDepth - 1),
		`{`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{"a":1 "b":2}`, `{a:1}`, `{"a":01}`, `{"a":1.}`,
		`{"a":.5}`, `{"a":1e}`, `{"a":-}`, `{"a":+1}`, `{"a":tru}`, `{"a":nul}`, `{"a":truex}`,
		`{"a":"\x"}`, `{"a":"\u12g4"}`, "{\"a\":\"\x1f\"}", `{"a":[1,]}`, `{"a":[1 2]}`, `{"a":"x}`,
		`{"a":1}}`, `{"a":1} x`,
	} {
		s := NewScanner([]byte(in))
		s.Object(nil, nil)
		if got, want := s.End(), json.Valid([]byte(in)); got != want {
			t.Errorf("%.40q: scanner accepts %v, json.Valid %v", in, got, want)
		}
	}
	s := NewScanner([]byte(deep(maxDepth)))
	if s.Object(nil, nil); !s.Declined() {
		t.Error("nesting past maxDepth read")
	}
}

// TestReadsAgreeWithUnmarshal: String, Float and Time read what
// json.Unmarshal decodes, or decline where it fails.
func TestReadsAgreeWithUnmarshal(t *testing.T) {
	for _, in := range []string{
		`"plain"`, `""`, `"\"\\\/\b\f\n\r\t"`, `"é\u0000😀"`, `"\ud800"`, `"\ud800A"`,
		`"\udc00\ud800"`, `"😀\uDE00"`, "\"caf\xc3\xa9\"", "\"\xff\xfe\"", "\"\xed\xa0\x80\"",
		"\"\xf0\x9f\x98\"", `null`,
	} {
		var want string
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if got := NewScanner([]byte(in)).String(); got != want {
			t.Errorf("String of %q = %q, json.Unmarshal %q", in, got, want)
		}
	}
	for _, in := range []string{`0`, `-0`, `1.5`, `1e400`, `-1e-400`, `123456789e-3`, `1E2`, `null`, `"1"`} {
		var want float64
		err := json.Unmarshal([]byte(in), &want)
		s := NewScanner([]byte(in))
		if got := s.Float(); s.Declined() != (err != nil) || err == nil && got != want {
			t.Errorf("Float of %s = %v (declined %v), json.Unmarshal %v, %v", in, got, s.Declined(), want, err)
		}
	}
	for _, in := range []string{`"2022-11-01T10:00:00Z"`, `"2022-11-01T10:00:00.5+05:30"`, `null`, `"2022-11-01"`, `"2022-11-01T10:00:00Z"`, `1`} {
		var want time.Time
		err := json.Unmarshal([]byte(in), &want)
		s := NewScanner([]byte(in))
		if got := s.Time(); s.Declined() != (err != nil) || err == nil && !got.Equal(want) {
			t.Errorf("Time of %s = %v (declined %v), json.Unmarshal %v, %v", in, got, s.Declined(), want, err)
		}
	}
}

// TestAppendersAgreeWithMarshal: the appenders write what json.Marshal
// writes, and refuse what it refuses.
func TestAppendersAgreeWithMarshal(t *testing.T) {
	for _, s := range []string{"", "plain", "<a href=\"x\">&</a>", "\x00\x1f\t\n\\", "\xff caf\xc3\xa9 \u2028\u2029", "\u00e9\U0001F600"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.1, -1, 1e20, 1e21, 1e-6, 1e-7, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(-1)} {
		want, err := json.Marshal(f)
		if got, ok := AppendFloat(nil, f); ok != (err == nil) || ok && string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal %s, %v", f, got, ok, want, err)
		}
	}
	for _, at := range []time.Time{time.Date(2022, 11, 1, 10, 0, 0, 5, time.UTC), time.Date(2022, 11, 1, 10, 0, 0, 0, time.FixedZone("", -19800)), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)} {
		want, err := json.Marshal(at)
		if got, ok := AppendTime(nil, at); ok != (err == nil) || ok && string(got) != string(want) {
			t.Errorf("AppendTime(%v) = %s, %v; json.Marshal %s, %v", at, got, ok, want, err)
		}
	}
}
