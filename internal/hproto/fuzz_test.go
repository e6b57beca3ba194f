package hproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"webharmony/internal/param"
)

// fuzzSeeds are well-formed wire messages covering every operation plus a
// few malformed shapes; the checked-in corpus under testdata/fuzz mirrors
// and extends them.
var fuzzSeeds = []string{
	`{"op":"register","session":"s","params":[{"name":"threads","min":1,"max":64,"default":8,"step":1}],"algorithm":"nelder-mead","seed":7}`,
	`{"op":"next","session":"s"}`,
	`{"op":"report","session":"s","perf":132.75}`,
	`{"op":"best","session":"s"}`,
	`{"op":"restart","session":"s"}`,
	`{"op":"list"}`,
	`{"op":"close","session":"s"}`,
	`{"op":"save","session":"s"}`,
	`{"op":"restore","session":"s","snapshot":{"params":[],"history":[1,2,3]}}`,
	`{"ok":true,"config":[8,16],"values":{"threads":8},"perf":1.5,"have_perf":true,"iterations":12}`,
	`{"ok":false,"error":"no session \"x\""}`,
	`{"op":"register","params":[{"name":"x","min":9,"max":1,"default":5,"step":0}]}`,
	`{"op":123}`,
	`{"op":"next","session":` + `"` + strings.Repeat("a", 100) + `"}`,
	`not json at all`,
	`{}`,
	``,
}

// FuzzDecodeMessage checks the codec against encoding/json, its oracle,
// on both sides of the protocol. For every input: decodeRequest and
// decodeResponse never panic, fail exactly when json.Unmarshal fails,
// with the same error text, and on success return values
// reflect.DeepEqual to json.Unmarshal's; and the
// typed appenders write exactly json.Marshal's bytes plus a newline, for
// every decoded message and for messages built from the raw input (so
// arbitrary strings, floats, snapshots and values-map key tables are
// encoded too).
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, ok := checkDecode(t, data, decodeRequest); ok {
			checkEncode(t, &req, AppendRequest)
		}
		if resp, ok := checkDecode(t, data, decodeResponse); ok {
			checkEncode(t, &resp, AppendResponse)
		}

		s := string(data)
		checkEncode(t, &Request{
			Op: Op(s), Session: s, Algorithm: s, Snapshot: data,
			Params: []param.Def{{Name: s, Min: -1, Max: 1, Step: 1, Unit: s}},
		}, AppendRequest)
		checkEncode(t, &Response{
			Error: s, Sessions: []string{s, ""}, Snapshot: data,
			Values: map[string]int64{s: 1, "b": -2, "B": 3},
		}, AppendResponse)
		if len(data) >= 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			checkEncode(t, &Request{Op: OpReport, Perf: x, GuardFactor: x, ShiftFactor: -x}, AppendRequest)
			checkEncode(t, &Response{OK: true, Perf: x}, AppendResponse)
		}
		checkValueNames(t, strings.Split(s, ","))
	})
}

// checkDecode compares decode with json.Unmarshal on data.
func checkDecode[T any](t *testing.T, data []byte, decode func([]byte, *interner) (T, error)) (T, bool) {
	t.Helper()
	got, err := decode(data, nil)
	if len(data) > MaxMessageSize {
		if err == nil {
			t.Fatalf("decoded a message of %d bytes past the limit", len(data))
		}
		return got, false
	}
	var want T
	werr := json.Unmarshal(data, &want)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("decode %q: err = %v, json.Unmarshal err = %v", data, err, werr)
	}
	if err != nil {
		return got, false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
	return got, true
}

// checkEncode compares appendLine with json.Marshal on v.
func checkEncode[T any](t *testing.T, v *T, appendLine func([]byte, *T) ([]byte, error)) {
	t.Helper()
	got, err := appendLine([]byte("prefix"), v)
	want, werr := json.Marshal(v)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("encode %#v: err = %v, json.Marshal err = %v", v, err, werr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("failed encode of %#v changed dst to %q", v, got)
		}
		return
	}
	if string(got) != "prefix"+string(want)+"\n" {
		t.Fatalf("encode %#v:\n got %q\nwant %q", v, got, "prefix"+string(want)+"\n")
	}
}

// checkValueNames compares the server's values-map key table for a space
// with the given parameter names against json.Marshal of the map that
// param.Config.Map builds, in a next and a best response.
func checkValueNames(t *testing.T, names []string) {
	t.Helper()
	defs := make([]param.Def, len(names))
	for i, n := range names {
		defs[i] = param.Def{Name: n, Min: -1 << 40, Max: 1 << 40, Step: 1}
	}
	space, err := param.NewSpace(defs...)
	if err != nil {
		return // empty or duplicate names: no session has this space
	}
	cfg := make(param.Config, len(names))
	for i := range cfg {
		cfg[i] = int64(i*i) - 3
	}
	table := newValueNames(space)
	for _, resp := range []Response{
		{OK: true, Config: cfg},
		{OK: true, Config: cfg, Perf: 1.5, HavePerf: true, Iterations: 9},
	} {
		got, err := appendResponse(nil, &resp, table)
		if err != nil {
			t.Fatal(err)
		}
		resp.Values = cfg.Map(space)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("values table for %q:\n got %q\nwant %q", names, got, string(want)+"\n")
		}
	}
}

func TestDecodeRequest(t *testing.T) {
	req, err := decodeRequest([]byte(fuzzSeeds[0]+"\n"), nil)
	if err != nil {
		t.Fatalf("decode with trailing newline failed: %v", err)
	}
	if req.Op != OpRegister || req.Session != "s" || len(req.Params) != 1 || req.Seed != 7 {
		t.Errorf("decoded request = %+v", req)
	}
	if _, err := decodeRequest([]byte(`{"op":`), nil); err == nil {
		t.Error("truncated JSON decoded without error")
	}
	huge := make([]byte, MaxMessageSize+1)
	if _, err := decodeRequest(huge, nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized message error = %v, want size-limit error", err)
	}
}

func TestDecodeResponse(t *testing.T) {
	resp, err := decodeResponse([]byte(`{"ok":true,"config":[8,16],"perf":1.5,"have_perf":true}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Config.Equal(param.Config{8, 16}) || resp.Perf != 1.5 || !resp.HavePerf {
		t.Errorf("decoded response = %+v", resp)
	}
	if _, err := decodeResponse([]byte("["), nil); err == nil {
		t.Error("truncated JSON decoded without error")
	}
}

// TestServerDropsOversizedMessage pins the frame bound: a client that
// streams a line past MaxMessageSize is disconnected instead of growing
// the server's buffer without limit.
func TestServerDropsOversizedMessage(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	junk := bytes.Repeat([]byte("a"), 64<<10)
	for sent := 0; sent <= MaxMessageSize+len(junk); sent += len(junk) {
		if _, err := conn.Write(junk); err != nil {
			return // server already cut the connection — also a pass
		}
	}
	if _, err := conn.Write([]byte("\n")); err != nil {
		return
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered an oversized frame; want the connection dropped")
	}
}

// TestClientRejectsOversizedResponse pins the client half of the frame
// bound: a server answering with a well-formed JSON line longer than
// MaxMessageSize gets an error from Client.Do, not a decoded response.
func TestClientRejectsOversizedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return
		}
		huge := `{"ok":true,"sessions":["` + strings.Repeat("a", MaxMessageSize) + `"]}` + "\n"
		conn.Write([]byte(huge))
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Do(Request{Op: OpList}); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Do on an oversized response: err = %v, want size-limit error", err)
	}
	<-served
}

// TestClientStopsAfterLostFraming pins that a Client whose stream lost
// its framing never pairs a request with a stale answer: after an answer
// past MaxMessageSize, whose tail stays unread, every later call returns
// the size-limit error instead of decoding the tail or the answer to an
// earlier request.
func TestClientStopsAfterLostFraming(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for i := 0; ; i++ {
			if _, err := r.ReadBytes('\n'); err != nil {
				return
			}
			answer := fmt.Sprintf(`{"ok":true,"iterations":%d}`+"\n", i)
			if i == 0 {
				answer = `{"ok":true,"sessions":["` + strings.Repeat("a", 2*MaxMessageSize) + `"]}` + "\n"
			}
			if _, err := conn.Write([]byte(answer)); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, first := c.Do(Request{Op: OpList})
	if first == nil || !strings.Contains(first.Error(), "exceeds limit") {
		t.Fatalf("Do on an oversized response: err = %v, want size-limit error", first)
	}
	for call := 2; call <= 3; call++ {
		if resp, err := c.Do(Request{Op: OpReport, Session: "s", Perf: 1}); !errors.Is(err, first) {
			t.Fatalf("call %d: resp = %+v, err = %v; want the first call's error", call, resp, err)
		}
	}
	c.Close()
	<-served
}

// TestClientRejectsUnterminatedResponse pins the client's read bound: a
// server that streams a line past MaxMessageSize without ever ending it,
// and keeps the connection open, gets a size-limit error from Client.Do
// instead of making the client buffer the stream until its deadline.
func TestClientRejectsUnterminatedResponse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return
		}
		junk := bytes.Repeat([]byte("a"), 64<<10)
		for sent := 0; sent < MaxMessageSize+len(junk); sent += len(junk) {
			if _, err := conn.Write(junk); err != nil {
				return // the client hung up once it had seen enough
			}
		}
		<-release // hold the connection open, line unterminated
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	_, err = c.Do(Request{Op: OpList})
	close(release)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Do on an unterminated response: err = %v, want size-limit error", err)
	}
	c.Close()
	<-served
}
