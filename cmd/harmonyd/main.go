// Command harmonyd runs a standalone Active Harmony tuning server speaking
// the JSON-lines protocol of internal/hproto over TCP.
//
// Applications (or the examples/remote-tuning client) register their
// tunable parameters, then alternate next/report requests; the server runs
// the adapted Nelder-Mead simplex per session:
//
//	{"op":"register","session":"web","params":[{"name":"threads","min":1,"max":512,"default":20,"step":1}]}
//	{"op":"next","session":"web"}
//	{"op":"report","session":"web","perf":118.2}
//	{"op":"best","session":"web"}
//
// Usage:
//
//	harmonyd [-addr 127.0.0.1:7779] [-drain 5s] [-debug-addr 127.0.0.1:7780]
//
// With -drain, shutdown on SIGINT is graceful: the listener stops at
// once, but in-flight requests get up to the drain window to finish
// before their connections are cut.
//
// With -debug-addr, a side HTTP listener serves runtime introspection:
// /debug/vars reports the protocol counters (sessions, asks, tells,
// frames decoded, connections, drain state) as expvar-style JSON, and
// /debug/pprof/ exposes the standard net/http/pprof profiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"

	"webharmony/internal/hproto"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is main with its dependencies surfaced — argv, the output streams
// and the shutdown signal channel — so tests can drive the daemon
// in-process and terminate it without sending a real signal.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("harmonyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7779", "listen address")
	drain := fs.Duration("drain", 0, "on shutdown, let in-flight requests finish for up to this long before cutting connections (0 = cut immediately)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this side address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "harmonyd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *drain < 0 {
		fmt.Fprintf(stderr, "harmonyd: -drain must be >= 0, got %v\n", *drain)
		return 2
	}

	srv, err := hproto.NewServer(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "harmonyd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "harmonyd listening on %s\n", srv.Addr())

	var dbg net.Listener
	if *debugAddr != "" {
		dbg, err = net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "harmonyd: -debug-addr: %v\n", err)
			_ = srv.Close()
			return 1
		}
		fmt.Fprintf(stdout, "harmonyd debug on http://%s/debug/vars\n", dbg.Addr())
		go func() { _ = http.Serve(dbg, srv.DebugHandler()) }()
	}

	<-sig
	if *drain > 0 {
		fmt.Fprintf(stdout, "harmonyd: shutting down (draining up to %v)\n", *drain)
		err = srv.DrainClose(*drain)
	} else {
		fmt.Fprintln(stdout, "harmonyd: shutting down")
		err = srv.Close()
	}
	if dbg != nil {
		_ = dbg.Close()
	}
	if err != nil {
		fmt.Fprintf(stderr, "harmonyd: close: %v\n", err)
		return 1
	}
	return 0
}
