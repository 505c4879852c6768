package memnet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// scriptKeys are the headers a script sets and deletes: the two that
// decide whether a write sniffs its Content-Type, and three others.
var scriptKeys = [...]string{"Content-Type", "Transfer-Encoding", "Content-Length", "Cache-Control", "X-Request-Id"}

// The ops of a handler script. Each is one byte, taken mod opCount,
// followed by its operands; a script that ends early reads zeros.
const (
	opSet         = iota // key, n, then n%8 bytes: Header().Set(key, bytes)
	opDel                // key: Header().Del(key)
	opCode               // hi, lo: WriteHeader(100 + (hi<<8|lo)%900)
	opWrite              // n, then n bytes: Write
	opWriteString        // n, then n bytes: WriteString
	opCount
)

// play runs script as a handler writing to w. Every op calls Header
// afresh, so a header set after the first write goes to whatever map
// the writer hands out then.
func play(w http.ResponseWriter, script []byte) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	chunk := func(n int) []byte {
		c := script[:min(n, len(script))]
		script = script[len(c):]
		return c
	}
	for len(script) > 0 {
		switch next() % opCount {
		case opSet:
			k := scriptKeys[next()%len(scriptKeys)]
			w.Header().Set(k, string(chunk(next()%8)))
		case opDel:
			w.Header().Del(scriptKeys[next()%len(scriptKeys)])
		case opCode:
			hi, lo := next(), next()
			w.WriteHeader(100 + (hi<<8|lo)%900)
		case opWrite:
			w.Write(chunk(next()))
		case opWriteString:
			w.(io.StringWriter).WriteString(string(chunk(next())))
		}
	}
}

// Script builders for the seeds; k indexes scriptKeys.
func set(k int, v string) []byte { return append([]byte{opSet, byte(k), byte(len(v))}, v...) }
func del(k int) []byte           { return []byte{opDel, byte(k)} }
func code(c int) []byte          { return []byte{opCode, byte((c - 100) >> 8), byte(c - 100)} }
func write(s string) []byte      { return append([]byte{opWrite, byte(len(s))}, s...) }
func writeString(s string) []byte {
	return append([]byte{opWriteString, byte(len(s))}, s...)
}

const (
	keyType = iota
	keyTE
	keyLength
	keyCache
	keyID
)

// responseScripts are the table cases of TestFabricResponse and the
// seeds of FuzzFabricResponse.
var responseScripts = map[string][]byte{
	"writes nothing":            nil,
	"headers, no write":         cat(set(keyID, "7"), set(keyCache, "no"), del(keyID), set(keyType, "a/b")),
	"sniffed html":              write("<html>"),
	"sniffed string":            writeString("%PDF-"),
	"empty write":               write(""),
	"typed":                     cat(set(keyType, "text/x"), write("{}")),
	"empty type is a type":      cat(set(keyType, ""), write("x")),
	"transfer-encoding":         cat(set(keyTE, "chunked"), write("x")),
	"empty transfer-encoding":   cat(set(keyTE, ""), writeString("x")),
	"deleted type":              cat(set(keyType, "a"), del(keyType), write("\x00\x01")),
	"code, then late headers":   cat(set(keyID, "a"), code(404), set(keyID, "b"), set(keyCache, "c"), write("nf")),
	"write, then code, headers": cat(write("a"), code(500), set(keyType, "b"), del(keyLength)),
	"informational code":        cat(set(keyLength, "3"), code(103), writeString("abc")),
	"code without text":         code(999),
	"two codes":                 cat(code(201), code(202)),
}

// cat joins script parts.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// scriptFabric serves play on script.example, reading the script from
// the request body.
func scriptFabric(t testing.TB) *Fabric {
	f := NewFabric()
	t.Cleanup(func() { f.Close() })
	if _, err := f.Serve(context.Background(), "script.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		script, _ := io.ReadAll(r.Body)
		play(w, script)
	})); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkScript serves script through f and through an
// httptest.ResponseRecorder, and requires the same status, headers and
// body of both, and a ContentLength of the body's length.
func checkScript(t *testing.T, f *Fabric, script []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, "https://script.example/", bytes.NewReader(script))
	resp, err := f.RoundTrip(req)
	if err != nil {
		t.Fatalf("script %q: %v", script, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("script %q: reading the body: %v", script, err)
	}
	rec := httptest.NewRecorder()
	play(rec, script)
	want := rec.Result()
	switch {
	case resp.StatusCode != want.StatusCode || resp.Status != want.Status:
		t.Errorf("script %q: status %d %q, recorder %d %q", script, resp.StatusCode, resp.Status, want.StatusCode, want.Status)
	case !reflect.DeepEqual(resp.Header, want.Header):
		t.Errorf("script %q: header %#v, recorder %#v", script, resp.Header, want.Header)
	case !bytes.Equal(body, rec.Body.Bytes()):
		t.Errorf("script %q: body %q, recorder %q", script, body, rec.Body.Bytes())
	case resp.ContentLength != int64(len(body)):
		t.Errorf("script %q: ContentLength %d for %d bytes", script, resp.ContentLength, len(body))
	case resp.Proto != want.Proto || resp.Request != req:
		t.Errorf("script %q: proto %q, request %p; want %q, %p", script, resp.Proto, resp.Request, want.Proto, req)
	}
}

// TestFabricResponse: the fabric's writer answers each table script as
// httptest.ResponseRecorder does. A code outside 100–999 fails the
// exchange with the recorder's panic text, and the fabric keeps
// serving.
func TestFabricResponse(t *testing.T) {
	f := scriptFabric(t)
	for name, script := range responseScripts {
		t.Run(name, func(t *testing.T) { checkScript(t, f, script) })
	}
	if _, err := f.Serve(context.Background(), "code.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, _ := strconv.Atoi(r.URL.Query().Get("code"))
		w.WriteHeader(c)
	})); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{99, 1000} {
		want := recorderPanic(c)
		_, err := f.Client().Get(fmt.Sprintf("https://code.example/?code=%d", c))
		if err == nil || want == "" || !strings.Contains(err.Error(), want) {
			t.Errorf("WriteHeader(%d): err %v, want the recorder's panic %q", c, err, want)
		}
		checkScript(t, f, write("still serving"))
	}
}

// recorderPanic is the text of the recorder's panic on WriteHeader(c),
// or "" when it does not panic.
func recorderPanic(c int) (text string) {
	defer func() {
		if p := recover(); p != nil {
			text = fmt.Sprint(p)
		}
	}()
	httptest.NewRecorder().WriteHeader(c)
	return ""
}

// FuzzFabricResponse: for any handler script, the fabric's response
// equals the recorder's in status, headers and body, and its
// ContentLength is the body's length.
func FuzzFabricResponse(fz *testing.F) {
	for _, script := range responseScripts {
		fz.Add(script)
	}
	f := scriptFabric(fz)
	fz.Fuzz(func(t *testing.T, script []byte) { checkScript(t, f, script) })
}
