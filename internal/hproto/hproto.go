// Package hproto implements the Active Harmony wire protocol: a JSON-lines
// dialect over TCP through which applications register their tunable
// parameters, fetch candidate configurations and report measured
// performance. It mirrors the client API of the real Active Harmony server
// (which the paper's modified Squid/Tomcat/MySQL wrappers call), so the
// tuning server can run as a separate process (cmd/harmonyd) from the
// system being tuned.
package hproto

import (
	"encoding/json"
	"fmt"

	"webharmony/internal/param"
)

// Op identifies a request type.
type Op string

// Protocol operations.
const (
	OpRegister Op = "register" // create a tuning session
	OpNext     Op = "next"     // fetch the next configuration to measure
	OpReport   Op = "report"   // report performance of the last config
	OpBest     Op = "best"     // query the best configuration so far
	OpRestart  Op = "restart"  // re-center the search (workload changed)
	OpList     Op = "list"     // list live sessions
	OpClose    Op = "close"    // drop a session
	OpSave     Op = "save"     // snapshot a session (deterministic replay)
	OpRestore  Op = "restore"  // recreate a session from a snapshot
)

// Request is one client → server message.
type Request struct {
	Op      Op     `json:"op"`
	Session string `json:"session,omitempty"`

	// Register fields.
	Params      []param.Def `json:"params,omitempty"`
	Algorithm   string      `json:"algorithm,omitempty"` // "", "nelder-mead", "random", "coordinate"
	Seed        uint64      `json:"seed,omitempty"`
	GuardFactor float64     `json:"guard_factor,omitempty"`
	ShiftFactor float64     `json:"shift_factor,omitempty"`

	// Report fields.
	Perf float64 `json:"perf,omitempty"`

	// Restore fields: a snapshot previously returned by OpSave.
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// Response is one server → client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Config     param.Config     `json:"config,omitempty"`
	Values     map[string]int64 `json:"values,omitempty"`
	Perf       float64          `json:"perf,omitempty"`
	HavePerf   bool             `json:"have_perf,omitempty"`
	Iterations int              `json:"iterations,omitempty"`
	Sessions   []string         `json:"sessions,omitempty"`
	Snapshot   json.RawMessage  `json:"snapshot,omitempty"`
}

// Errorf builds a failed response.
func Errorf(format string, args ...any) Response {
	return Response{Error: fmt.Sprintf(format, args...)}
}

// MaxMessageSize bounds one wire message (the line, including the
// terminating newline). Legitimate messages are a few KB at most — the
// largest carries a snapshot of a tuning session — so the server drops a
// connection whose line exceeds this rather than buffering an unbounded
// frame from a misbehaving client.
const MaxMessageSize = 1 << 20
