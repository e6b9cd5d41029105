package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAppendStringMatchesJSON(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
			return false
		}
		if n := StringLen(s); n < len(got) || (n != len(got) && isPlain(s)) {
			t.Errorf("StringLen(%q) = %d for %d bytes", s, n, len(got))
		}
		return true
	}
	for _, s := range []string{"", "op12", `a"b\c`, "<a&b>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"é😀", "  ", "bad\xff\xfeutf8", "\xed\xa0\x80", "\xe2\x80"} {
		check(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func isPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 || !htmlSafe[s[i]] {
			return false
		}
	}
	return true
}

func TestAppendFloatMatchesJSON(t *testing.T) {
	check := func(f float64) bool {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return true
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendFloat(nil, f)
		if !bytes.Equal(got, want) || FloatLen(f) != len(want) {
			t.Errorf("AppendFloat(%v) = %s (FloatLen %d), json.Marshal = %s", f, got, FloatLen(f), want)
			return false
		}
		return true
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789.125,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 1e-9, 2.5e-10} {
		check(f)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(bits uint64) bool { return check(math.Float64frombits(bits)) }, nil); err != nil {
		t.Error(err)
	}
}

// FuzzDecoderGrammar checks the reader against encoding/json: Skip accepts
// a document exactly when json.Valid does, and a string document unquotes
// to what json.Unmarshal gives.
func FuzzDecoderGrammar(f *testing.F) {
	for _, s := range []string{`{"a":[1,-0.5e+3,true,false,null,"xé😀"]}`, ` [] `, `{}`, `"\ud800"`,
		`[01]`, `[1.]`, `{"a" 1}`, `[1,]`, `{,}`, `nul`, "\"\xff\"", `"\'"`, `1 2`, ``,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001)} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		err := d.Skip()
		if err == nil {
			err = d.End()
		}
		if valid := json.Valid(data); (err == nil) != valid {
			t.Fatalf("%q: Skip error %v, json.Valid %v", data, err, valid)
		}
		var want string
		if json.Unmarshal(data, &want) != nil {
			return
		}
		got, err := NewDecoder(data).String()
		if err != nil || string(got) != want {
			t.Fatalf("%q: String = %q, %v; json.Unmarshal = %q", data, got, err, want)
		}
	})
}
