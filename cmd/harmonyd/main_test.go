package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"webharmony/internal/hproto"
	"webharmony/internal/param"
)

// syncBuffer is an io.Writer the daemon goroutine and the test can share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls the daemon's stdout until the pattern appears, returning
// the first capture group.
func waitFor(t *testing.T, buf *syncBuffer, pattern string) string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon output never matched %q; output so far:\n%s", pattern, buf.String())
	return ""
}

// TestDebugAddrServesIntrospection boots the daemon with -debug-addr,
// runs a scripted tuning session against it and asserts the /debug/vars
// counters advanced, then shuts it down via the signal channel.
func TestDebugAddrServesIntrospection(t *testing.T) {
	var stdout, stderr syncBuffer
	sig := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"},
			&stdout, &stderr, sig)
	}()
	addr := waitFor(t, &stdout, `harmonyd listening on ([\S]+)`)
	debugURL := waitFor(t, &stdout, `harmonyd debug on (http://[\S]+)/debug/vars`)

	c, err := hproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defs := []param.Def{{Name: "threads", Min: 1, Max: 64, Default: 8, Step: 1}}
	if err := c.Register("web", defs, "", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Next("web"); err != nil {
		t.Fatal(err)
	}
	if err := c.Report("web", 120); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(debugURL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("bad /debug/vars JSON %q: %v", body, err)
	}
	for key, want := range map[string]string{
		"sessions": "1", "sessions_created": "1", "asks": "1", "tells": "1",
		"frames": "3", "conns": "1", "conns_open": "1",
		"drain_state": `"running"`,
	} {
		if got := strings.TrimSpace(string(vars[key])); got != want {
			t.Errorf("/debug/vars %s = %s, want %s", key, got, want)
		}
	}

	// pprof must answer too.
	resp, err = http.Get(debugURL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d, want 200", resp.StatusCode)
	}

	c.Close()
	sig <- os.Interrupt
	if code := <-exit; code != 0 {
		t.Fatalf("daemon exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
}

// TestBadFlagExitsTwo checks that an unknown flag, a stray positional
// argument and a negative -drain are refused before the daemon listens. The
// signal channel has already fired, so a daemon that accepted the arguments
// would start, shut down at once and exit 0 instead of hanging.
func TestBadFlagExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"unknown-flag", "flag provided but not defined", []string{"-addr", "127.0.0.1:0", "-no-such-flag"}},
		{"positional", "unexpected argument", []string{"-addr", "127.0.0.1:0", "stray"}},
		{"negative-drain", "-drain must be >= 0", []string{"-addr", "127.0.0.1:0", "-drain", "-1s"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr syncBuffer
			sig := make(chan os.Signal, 1)
			sig <- os.Interrupt
			if code := run(tc.args, &stdout, &stderr, sig); code != 2 {
				t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr should say %q, got:\n%s", tc.want, stderr.String())
			}
			if strings.Contains(stdout.String(), "listening") {
				t.Errorf("daemon started before refusing its arguments:\n%s", stdout.String())
			}
		})
	}
}

func TestBadDebugAddrFails(t *testing.T) {
	var stdout, stderr syncBuffer
	code := run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "256.256.256.256:1"},
		&stdout, &stderr, nil)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-debug-addr") {
		t.Errorf("stderr should name the failing flag, got:\n%s", stderr.String())
	}
}
