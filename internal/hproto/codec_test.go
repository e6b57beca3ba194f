package hproto

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"webharmony/internal/cluster"
	"webharmony/internal/param"
	"webharmony/internal/websim"
)

// TestDecodeCopiesInput pins that a decoded message shares no memory with
// its input line: the server and client decode straight out of their read
// buffers, which the next read overwrites.
func TestDecodeCopiesInput(t *testing.T) {
	reqLine := `{"op":"restore","session":"sé","params":[{"name":"threads","min":1,"max":9,"default":2,"step":1,"unit":"n"}],"algorithm":"nelder-mead","snapshot":{"params":[],"history":[1,2]}}`
	respLine := `{"ok":false,"error":"e","config":[1,2],"values":{"threads":1,"kéy":2},"sessions":["a","b"],"snapshot":[1,"x"]}`
	var strs interner
	for name, decode := range map[string]func([]byte) (any, error){
		"request":           func(b []byte) (any, error) { return DecodeRequest(b) },
		"response":          func(b []byte) (any, error) { return DecodeResponse(b) },
		"interned request":  func(b []byte) (any, error) { return decodeRequest(b, &strs) },
		"interned response": func(b []byte) (any, error) { return decodeResponse(b, &strs) },
	} {
		line := reqLine
		if name == "response" || name == "interned response" {
			line = respLine
		}
		want, err := decode([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte(line)
		got, err := decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: overwriting the input changed the decoded message:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestAppendRejectsNonFinite pins that a NaN or infinite float fails to
// encode with json.Marshal's error, leaving dst as it was.
func TestAppendRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, werr := json.Marshal(Request{Perf: x})
		if werr == nil {
			t.Fatal("json.Marshal accepted a non-finite perf")
		}
		for _, enc := range []func([]byte) ([]byte, error){
			func(b []byte) ([]byte, error) { return AppendRequest(b, &Request{Op: OpReport, Perf: x}) },
			func(b []byte) ([]byte, error) { return AppendRequest(b, &Request{Op: OpRegister, GuardFactor: x}) },
			func(b []byte) ([]byte, error) { return AppendResponse(b, &Response{OK: true, Perf: x}) },
		} {
			out, err := enc([]byte("kept"))
			if err == nil || err.Error() != werr.Error() {
				t.Errorf("perf %v: err = %v, want %v", x, err, werr)
			}
			if string(out) != "kept" {
				t.Errorf("perf %v: dst = %q after a failed encode, want it unchanged", x, out)
			}
		}
	}
}

// TestValueNamesMatchMap pins the server's values-map key table against
// json.Marshal of the map it stands in for, with names that need escaping
// and whose sorted order differs from the parameter order.
func TestValueNamesMatchMap(t *testing.T) {
	checkValueNames(t, []string{"threads", "Threads", "a<b", "ü", `"q"`, "a b", "a_b", "a", "\xff", "z&"})
	var names []string
	for _, d := range tableSpace(t).Defs() {
		names = append(names, d.Name)
	}
	checkValueNames(t, names)
}

// tableSpace is the 23-parameter space of Table 3, every tier's knobs:
// the space the harmonyd benchmark workload tunes.
func tableSpace(tb testing.TB) *param.Space {
	var prefixes []string
	var spaces []*param.Space
	for _, t := range cluster.Tiers() {
		prefixes = append(prefixes, t.String())
		spaces = append(spaces, websim.SpaceFor(t))
	}
	space, err := param.Concat(prefixes, spaces)
	if err != nil {
		tb.Fatal(err)
	}
	return space
}

// BenchmarkCodecNext is one next answer for the Table 3 space as the
// server encodes it (values map from the session's key table) and the
// client decodes it (interned keys).
func BenchmarkCodecNext(b *testing.B) {
	space := tableSpace(b)
	names := newValueNames(space)
	resp := Response{OK: true, Config: space.DefaultConfig()}
	var (
		strs interner
		line []byte
		err  error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if line, err = appendResponse(line[:0], &resp, names); err != nil {
			b.Fatal(err)
		}
		got, err := decodeResponse(line, &strs)
		if err != nil || len(got.Values) != space.Len() {
			b.Fatalf("decode: %v, %d values", err, len(got.Values))
		}
	}
	b.SetBytes(int64(len(line)))
}

// BenchmarkCodecReport is one whole report exchange: the client encodes
// the request, the server decodes it and encodes its answer, the client
// decodes that.
func BenchmarkCodecReport(b *testing.B) {
	req := Request{Op: OpReport, Session: "warm-c0-s17", Perf: 912.3456789012345}
	resp := Response{OK: true, Iterations: 57}
	var (
		clientStrs, serverStrs interner
		reqLine, respLine      []byte
		err                    error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if reqLine, err = AppendRequest(reqLine[:0], &req); err != nil {
			b.Fatal(err)
		}
		got, err := decodeRequest(reqLine, &serverStrs)
		if err != nil || got.Perf != req.Perf {
			b.Fatalf("decode request: %v", err)
		}
		if respLine, err = appendResponse(respLine[:0], &resp, nil); err != nil {
			b.Fatal(err)
		}
		if r, err := decodeResponse(respLine, &clientStrs); err != nil || r.Iterations != resp.Iterations {
			b.Fatalf("decode response: %v", err)
		}
	}
}
