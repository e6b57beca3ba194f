package hproto

import (
	"bufio"
	"bytes"
	"net"
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

// FuzzDecodeMessage fuzzes the wire-message parsing layer on both sides
// of the protocol. Invariants: decoding never panics on any input; a
// successfully decoded message re-encodes without error; and
// encode∘decode is idempotent — re-decoding the canonical encoding and
// encoding again reproduces it byte for byte (so a server relaying a
// message cannot drift).
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			b1, err := EncodeLine(req)
			if err != nil {
				t.Fatalf("decoded request %q does not re-encode: %v", data, err)
			}
			req2, err := DecodeRequest(b1)
			if err != nil {
				t.Fatalf("canonical encoding %q does not decode: %v", b1, err)
			}
			b2, err := EncodeLine(req2)
			if err != nil {
				t.Fatalf("re-decoded request does not encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("request encoding not idempotent:\n first %q\nsecond %q", b1, b2)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			b1, err := EncodeLine(resp)
			if err != nil {
				t.Fatalf("decoded response %q does not re-encode: %v", data, err)
			}
			resp2, err := DecodeResponse(b1)
			if err != nil {
				t.Fatalf("canonical encoding %q does not decode: %v", b1, err)
			}
			b2, err := EncodeLine(resp2)
			if err != nil {
				t.Fatalf("re-decoded response does not encode: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("response encoding not idempotent:\n first %q\nsecond %q", b1, b2)
			}
		}
	})
}

func TestDecodeRequest(t *testing.T) {
	req, err := DecodeRequest([]byte(fuzzSeeds[0] + "\n"))
	if err != nil {
		t.Fatalf("decode with trailing newline failed: %v", err)
	}
	if req.Op != OpRegister || req.Session != "s" || len(req.Params) != 1 || req.Seed != 7 {
		t.Errorf("decoded request = %+v", req)
	}
	if _, err := DecodeRequest([]byte(`{"op":`)); err == nil {
		t.Error("truncated JSON decoded without error")
	}
	huge := make([]byte, MaxMessageSize+1)
	if _, err := DecodeRequest(huge); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized message error = %v, want size-limit error", err)
	}
}

func TestDecodeResponse(t *testing.T) {
	resp, err := DecodeResponse([]byte(`{"ok":true,"config":[8,16],"perf":1.5,"have_perf":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Config.Equal(param.Config{8, 16}) || resp.Perf != 1.5 || !resp.HavePerf {
		t.Errorf("decoded response = %+v", resp)
	}
	if _, err := DecodeResponse([]byte("[")); err == nil {
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
