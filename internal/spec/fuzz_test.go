package spec

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSpecJSON checks that arbitrary input never panics the decoder and
// that accepted inputs re-encode and re-decode cleanly.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"exec":[{"op":"A","proc":"P1","duration":1.5}],"comm":[{"src":"A","dst":"B","link":"L","duration":0.5}]}`))
	f.Add([]byte(`{"exec":[{"op":"A","proc":"P1","duration":1e999}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := s.UnmarshalJSON(data); err != nil {
			return // rejected input is fine
		}
		out, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		var back Spec
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-encoded output failed to decode: %v\n%s", err, out)
		}
	})
}

// FuzzExecTable checks the text-table parser never panics.
func FuzzExecTable(f *testing.F) {
	f.Add("op/proc A B\nP1 1 2\n")
	f.Add("op/proc A\nP1 inf\n")
	f.Add("")
	f.Add("x")
	f.Fuzz(func(t *testing.T, text string) {
		s := New()
		_ = s.ParseExecTable(text)
	})
}

// FuzzCommTable checks the comm-table parser never panics.
func FuzzCommTable(f *testing.F) {
	f.Add("dep/link A->B\nL 0.5\n")
	f.Add("dep/link A->B C->D\nL 1 -\n")
	f.Add("dep/link ->\nL 1\n")
	f.Fuzz(func(t *testing.T, text string) {
		s := New()
		_ = s.ParseCommTable(text)
	})
}

// FuzzSpecDecodeDifferential checks the byte-level decoder against the
// encoding/json reference: both must accept the same inputs and build the
// same table, compared by re-encoding, and the encoder must write what
// json.Marshal writes for that table.
func FuzzSpecDecodeDifferential(f *testing.F) {
	for _, seed := range decodeSeeds {
		f.Add([]byte(seed))
	}
	// One nesting level past encoding/json's limit, and the limit itself.
	for _, depth := range []int{9998, 9999} {
		f.Add([]byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeDifferential(t, data)
	})
}

func checkDecodeDifferential(t *testing.T, data []byte) {
	t.Helper()
	want, refErr := refUnmarshal(data)
	var got Spec
	err := got.UnmarshalJSON(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q: decoder error %v, reference error %v", data, err, refErr)
	}
	if err != nil {
		return
	}
	wantJSON, err := refMarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := refMarshal(mapsOf(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%q: decoded table\n%s\nreference table\n%s", data, gotJSON, wantJSON)
	}
	enc, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, wantJSON) {
		t.Fatalf("%q: MarshalJSON\n%s\njson.Marshal\n%s", data, enc, wantJSON)
	}
}

// decodeSeeds covers each rule the decoder shares with encoding/json.
var decodeSeeds = []string{
	// Plain documents.
	`{"exec":[{"op":"A","proc":"P1","duration":1.5},{"op":"A","proc":"P2","duration":2}],"comm":[{"src":"A","dst":"B","link":"L","duration":0.5}]}`,
	"\t{ \"exec\" : [ ] ,\r\n \"comm\" : [ ] }\n ",
	`{}`,
	// null documents, tables, entries and members.
	`null`,
	` null `,
	`{"exec":null,"comm":null}`,
	`{"exec":[null]}`,
	`{"comm":[null]}`,
	`{"exec":[{"op":"A","proc":null,"duration":1}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":null}]}`,
	`{"comm":[{"src":null,"dst":"B","link":"L","duration":null}]}`,
	// Case-insensitive member names, including runes that fold to ASCII.
	`{"EXEC":[{"OP":"A","Proc":"P","DURATION":1}],"Comm":[{"SRC":"A","dSt":"B","LINK":"L","duration":1}]}`,
	"{\"comm\":[{\"ſrc\":\"A\",\"dst\":\"B\",\"linK\":\"L\",\"duration\":2}]}",
	`{"comm":[{"ſrc":"A","dst":"B","link":"L","duration":2}]}`,
	"{\"exİc\":[{\"op\":\"A\",\"proc\":\"P\",\"duration\":1}]}",
	// Unknown members anywhere.
	`{"x":[1,{"y":null},"z",true,false,-0.5e+3],"exec":[{"op":"A","proc":"P","duration":1,"extra":{"z":[true,false]}}]}`,
	// Repeated members: the last value wins, and a repeated table decodes
	// onto the entries of the previous one.
	`{"exec":[{"op":"A","proc":"P","duration":1,"op":"B"}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1},{"op":"B","proc":"P","duration":2}],"exec":[{"duration":3}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1},{"op":"B","proc":"P","duration":2}],"exec":[{"duration":3}],"EXEC":[{},{}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":-1}],"exec":[{"duration":1}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1}],"exec":null,"exec":[{}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1}],"exec":[],"exec":[null]}`,
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":1},{"src":"C","dst":"D","link":"L","duration":1}],"comm":[{"link":"M"}],"comm":[null,null]}`,
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":-1}],"Comm":[{"duration":1}]}`,
	// Escapes and invalid UTF-8 in names.
	`{"exec":[{"op":"A\n\t\"\\\/","proc":"😀","duration":1}]}`,
	`{"exec":[{"op":"\ud800","proc":"\udc00\ud800x","duration":1}]}`,
	`{"exec":[{"op":"\ud800A","proc":"􏿿","duration":1}]}`,
	"{\"exec\":[{\"op\":\"\xff\xfe\",\"proc\":\"\xed\xa0\x80\",\"duration\":1}]}",
	`{"exec":[{"op":"<a&b>","proc":"  ","duration":1}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1}],"comm":[]}`,
	`{"exec":[{"op":"A\'","proc":"P","duration":1}]}`,
	`{"exec":[{"op":"A\x","proc":"P","duration":1}]}`,
	"{\"exec\":[{\"op\":\"A\x01\",\"proc\":\"P\",\"duration\":1}]}",
	// Exec durations: quoted numbers, overflow to Inf, bad values.
	`{"exec":[{"op":"A","proc":"P","duration":"1.5"}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":"1e999"}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":"1"}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":"inf"}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":" 1"}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":""}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1e999}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":-1e999}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1E+2}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":-0}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":1e-400}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":-1}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":true}]}`,
	`{"exec":[{"op":"A","proc":"P","duration":[1]}]}`,
	`{"exec":[{"op":"A","proc":"P"}]}`,
	// Comm durations: finite numbers only.
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":1e999}]}`,
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":"0.5"}]}`,
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":1e-400}]}`,
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":1e-7}]}`,
	`{"comm":[{"src":"A","dst":"B","link":"L","duration":1e21}]}`,
	// Wrong kinds.
	`[]`,
	`"spec"`,
	`1`,
	`true`,
	`{"exec":{}}`,
	`{"exec":"x"}`,
	`{"exec":[1]}`,
	`{"exec":[{"op":1,"proc":"P","duration":1}]}`,
	`{"comm":[{"src":"A","dst":"B","link":false,"duration":1}]}`,
	// Malformed JSON and trailing bytes.
	``,
	`   `,
	`{`,
	`{"exec":[}`,
	`{"exec":[],}`,
	`{"exec":[{"op":"A",}]}`,
	`{"exec" []}`,
	`{"exec":[01]}`,
	`{"x":[1.]}`,
	`{"x":[-]}`,
	`{"x":[1e]}`,
	`{"x":[nul]}`,
	`{"x":[truex]}`,
	`{} x`,
	`{}}`,
	`nullx`,
}
