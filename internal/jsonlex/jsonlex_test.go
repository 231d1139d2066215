package jsonlex

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzLexer holds the lexer to encoding/json on any input: Skip accepts
// exactly the documents json.Valid accepts, and a document that is one
// string or one integer decodes to what json.Unmarshal gives, or fails
// where it fails.
func FuzzLexer(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,-2.5e+3,true,false,null,"x\u00e9\ud83d\ude00"],"b":{}}`,
		`[[],{},""]`,
		`"\ud800x\udfff\ud800\udc00"`,
		"\"\xff\xc3 \xe2\x84\xaa\"",
		`"\/\b\f\n\r\t"`,
		`0`, `-0`, `9223372036854775807`, `-9223372036854775808`, `9223372036854775808`,
		`1.0`, `1e3`, `01`, `-`, `1.`, `.5`, `+1`, `"\x"`, `"\u00g0"`, "\"\x01\"",
		`{"a" 1}`, `{"a":1,}`, `[1,]`, `[1 2]`, `nul`, `truex`, ` {} `, `{}]`, `null`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lx := New(data)
		err := lx.Skip()
		if err == nil {
			err = lx.End()
		}
		if valid := json.Valid(data); valid != (err == nil) {
			t.Fatalf("Skip error %v, json.Valid %v", err, valid)
		}

		var s, wantS string
		lx = New(data)
		err = lx.DecodeString(&s)
		if err == nil {
			err = lx.End()
		}
		werr := json.Unmarshal(data, &wantS)
		if (err == nil) != (werr == nil) || err == nil && s != wantS {
			t.Fatalf("DecodeString %q, %v; json.Unmarshal %q, %v", s, err, wantS, werr)
		}

		var n, wantN int64
		lx = New(data)
		err = lx.DecodeInt64(&n)
		if err == nil {
			err = lx.End()
		}
		werr = json.Unmarshal(data, &wantN)
		if (err == nil) != (werr == nil) || err == nil && n != wantN {
			t.Fatalf("DecodeInt64 %d, %v; json.Unmarshal %d, %v", n, err, wantN, werr)
		}
	})
}
