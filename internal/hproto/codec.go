package hproto

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"webharmony/internal/param"
)

// The wire codec. Request and Response are encoded by typed appenders,
// without reflection, and decoded by a scanner that reads only the
// canonical form those appenders write; every other line goes whole to
// encoding/json, which is also the test oracle:
//
//   - AppendRequest(dst, &r) appends exactly json.Marshal(r) plus '\n',
//     and fails exactly when json.Marshal does; likewise AppendResponse.
//   - decodeRequest(line, strs) fails exactly when json.Unmarshal(line, &r)
//     does, with the same error text, and on success returns a value
//     reflect.DeepEqual to json.Unmarshal's.
//
// The scanner accepts no input that needs encoding/json's quirks (folded
// keys, duplicate keys, null, escapes, deep nesting), so on the lines it
// accepts the two agree by construction, and on every other line the
// answer is encoding/json's own. FuzzDecodeMessage checks the contract
// differentially.

// AppendRequest appends r's wire line, json.Marshal(r) followed by a
// newline, to dst. On error dst is returned unchanged.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	n0 := len(dst)
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, string(r.Op))
	if r.Session != "" {
		dst = append(dst, `,"session":`...)
		dst = appendString(dst, r.Session)
	}
	if len(r.Params) > 0 {
		dst = append(dst, `,"params":[`...)
		for i := range r.Params {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendDef(dst, &r.Params[i])
		}
		dst = append(dst, ']')
	}
	if r.Algorithm != "" {
		dst = append(dst, `,"algorithm":`...)
		dst = appendString(dst, r.Algorithm)
	}
	if r.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendUint(dst, r.Seed, 10)
	}
	var err error
	if r.GuardFactor != 0 {
		if dst, err = appendFloat(append(dst, `,"guard_factor":`...), r.GuardFactor); err != nil {
			return dst[:n0], err
		}
	}
	if r.ShiftFactor != 0 {
		if dst, err = appendFloat(append(dst, `,"shift_factor":`...), r.ShiftFactor); err != nil {
			return dst[:n0], err
		}
	}
	if r.Perf != 0 {
		if dst, err = appendFloat(append(dst, `,"perf":`...), r.Perf); err != nil {
			return dst[:n0], err
		}
	}
	if len(r.Snapshot) > 0 {
		if dst, err = appendRaw(append(dst, `,"snapshot":`...), r.Snapshot); err != nil {
			return dst[:n0], err
		}
	}
	return append(dst, '}', '\n'), nil
}

// AppendResponse appends r's wire line, json.Marshal(r) followed by a
// newline, to dst. On error dst is returned unchanged.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	return appendResponse(dst, r, nil)
}

// valueNames is a session's key table for the "values" map: one entry per
// parameter, in the order encoding/json writes map keys (sorted by name),
// each key already escaped as `"name":`. The server builds it once per
// session and encodes every next and best response's values map straight
// from the configuration, without building the map.
type valueNames []valueName

type valueName struct {
	idx int    // parameter index in the configuration
	key []byte // `"name":`
}

func newValueNames(space *param.Space) valueNames {
	names := make(valueNames, space.Len())
	for i := range names {
		names[i] = valueName{idx: i, key: append(appendString(nil, space.Def(i).Name), ':')}
	}
	slices.SortFunc(names, func(a, b valueName) int {
		return strings.Compare(space.Def(a.idx).Name, space.Def(b.idx).Name)
	})
	return names
}

// appendResponse is AppendResponse with the values map optionally given
// as names over r.Config: with names non-nil, r.Values is ignored and the
// map encoded is the one r.Config.Map would build for the session.
func appendResponse(dst []byte, r *Response, names valueNames) ([]byte, error) {
	n0 := len(dst)
	if r.OK {
		dst = append(dst, `{"ok":true`...)
	} else {
		dst = append(dst, `{"ok":false`...)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	if len(r.Config) > 0 {
		dst = append(dst, `,"config":[`...)
		for i, v := range r.Config {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	switch {
	case len(names) > 0:
		dst = append(dst, `,"values":{`...)
		for i, n := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, n.key...)
			dst = strconv.AppendInt(dst, r.Config[n.idx], 10)
		}
		dst = append(dst, '}')
	case names == nil && len(r.Values) > 0:
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"values":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, k), ':')
			dst = strconv.AppendInt(dst, r.Values[k], 10)
		}
		dst = append(dst, '}')
	}
	var err error
	if r.Perf != 0 {
		if dst, err = appendFloat(append(dst, `,"perf":`...), r.Perf); err != nil {
			return dst[:n0], err
		}
	}
	if r.HavePerf {
		dst = append(dst, `,"have_perf":true`...)
	}
	if r.Iterations != 0 {
		dst = append(dst, `,"iterations":`...)
		dst = strconv.AppendInt(dst, int64(r.Iterations), 10)
	}
	if len(r.Sessions) > 0 {
		dst = append(dst, `,"sessions":[`...)
		for i, s := range r.Sessions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, s)
		}
		dst = append(dst, ']')
	}
	if len(r.Snapshot) > 0 {
		if dst, err = appendRaw(append(dst, `,"snapshot":`...), r.Snapshot); err != nil {
			return dst[:n0], err
		}
	}
	return append(dst, '}', '\n'), nil
}

func appendDef(dst []byte, d *param.Def) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, d.Name)
	dst = strconv.AppendInt(append(dst, `,"min":`...), d.Min, 10)
	dst = strconv.AppendInt(append(dst, `,"max":`...), d.Max, 10)
	dst = strconv.AppendInt(append(dst, `,"default":`...), d.Default, 10)
	dst = strconv.AppendInt(append(dst, `,"step":`...), d.Step, 10)
	if d.Unit != "" {
		dst = append(dst, `,"unit":`...)
		dst = appendString(dst, d.Unit)
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone (it escapes '<', '>' and '&' for HTML) is
// copied as is; any other string goes to encoding/json.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f the way encoding/json does: ES6 number formatting,
// and an *json.UnsupportedValueError for NaN and the infinities.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendRaw appends a snapshot's raw JSON. encoding/json validates it,
// compacts it and escapes it for HTML; it is not on the tuning hot path.
func appendRaw(dst []byte, raw json.RawMessage) ([]byte, error) {
	b, err := json.Marshal(raw)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// decodeRequest parses one request line (a trailing newline is
// tolerated). It is total: any input yields either a Request or an error,
// never a panic; the server feeds it bytes straight off the network, and
// FuzzDecodeMessage pins that property. The result shares no memory with
// line. strs, if non-nil, interns the short strings decoded.
func decodeRequest(line []byte, strs *interner) (Request, error) {
	if err := checkSize(line); err != nil {
		return Request{}, err
	}
	if req, ok := scanRequest(line, strs); ok {
		return req, nil
	}
	return unmarshal[Request](line)
}

// decodeResponse parses one response line, with the same guarantees as
// decodeRequest.
func decodeResponse(line []byte, strs *interner) (Response, error) {
	if err := checkSize(line); err != nil {
		return Response{}, err
	}
	if resp, ok := scanResponse(line, strs); ok {
		return resp, nil
	}
	return unmarshal[Response](line)
}

// checkSize bounds a line before either path decodes it.
func checkSize(line []byte) error {
	if len(line) > MaxMessageSize {
		return fmt.Errorf("hproto: message of %d bytes exceeds limit %d", len(line), MaxMessageSize)
	}
	return nil
}

// unmarshal decodes a line the scanner does not accept. It decodes into
// its own variable: handing the scanner's result to json.Unmarshal would
// move that to the heap on every line.
func unmarshal[T any](line []byte) (T, error) {
	var v T
	if err := json.Unmarshal(line, &v); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// The JSON keys the scanner accepts for Request, Response and param.Def.
// Snapshot is not among them: a line that carries one goes to
// encoding/json.
var (
	requestKeys  = []string{"op", "session", "params", "algorithm", "seed", "guard_factor", "shift_factor", "perf"}
	responseKeys = []string{"ok", "error", "config", "values", "perf", "have_perf", "iterations", "sessions"}
	defKeys      = []string{"name", "min", "max", "default", "step", "unit"}
)

// scanRequest decodes a request line in canonical form; ok is false for
// any other line.
func scanRequest(line []byte, strs *interner) (req Request, ok bool) {
	s := scanner{data: line, strs: strs}
	var seen uint
	ok = s.object(func(key []byte) bool {
		switch field(key, requestKeys, &seen) {
		case "op":
			return s.string((*string)(&req.Op))
		case "session":
			return s.string(&req.Session)
		case "params":
			return s.defs(&req.Params)
		case "algorithm":
			return s.string(&req.Algorithm)
		case "seed":
			return s.uint64(&req.Seed)
		case "guard_factor":
			return s.float64(&req.GuardFactor)
		case "shift_factor":
			return s.float64(&req.ShiftFactor)
		case "perf":
			return s.float64(&req.Perf)
		}
		return false
	}) && s.end()
	return req, ok
}

// scanResponse decodes a response line in canonical form; ok is false
// for any other line.
func scanResponse(line []byte, strs *interner) (resp Response, ok bool) {
	s := scanner{data: line, strs: strs}
	var seen uint
	ok = s.object(func(key []byte) bool {
		switch field(key, responseKeys, &seen) {
		case "ok":
			return s.bool(&resp.OK)
		case "error":
			return s.string(&resp.Error)
		case "config":
			return s.config(&resp.Config)
		case "values":
			return s.values(&resp.Values, len(resp.Config))
		case "perf":
			return s.float64(&resp.Perf)
		case "have_perf":
			return s.bool(&resp.HavePerf)
		case "iterations":
			v, ok := s.int(strconv.IntSize)
			resp.Iterations = int(v)
			return ok
		case "sessions":
			return s.array(func() bool {
				resp.Sessions = append(resp.Sessions, "")
				return s.string(&resp.Sessions[len(resp.Sessions)-1])
			})
		}
		return false
	}) && s.end()
	return resp, ok
}

// scanner reads the canonical form of a line, the form the appenders
// write: one object, then at most a newline; no whitespace and no null;
// known keys spelled exactly, each at most once; strings of printable
// ASCII other than '"' and '\\'; integers that fit their field; floats
// in JSON's grammar that strconv.ParseFloat accepts; no empty object or
// array. On such a line it decodes what json.Unmarshal decodes. Each
// method reports false at the first byte outside that form, and the line
// then goes whole to encoding/json.
type scanner struct {
	data []byte
	pos  int
	strs *interner // nil: every decoded string is a fresh copy
}

// consume moves past c if it is the next byte.
func (s *scanner) consume(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end accepts a newline, then the end of the line.
func (s *scanner) end() bool {
	s.consume('\n')
	return s.pos == len(s.data)
}

// field returns the key of keys that key spells, or "" for an unknown or
// repeated one; seen holds a bit per key already met.
func field(key []byte, keys []string, seen *uint) string {
	for i, k := range keys {
		if string(key) == k {
			if *seen&(1<<i) != 0 {
				return ""
			}
			*seen |= 1 << i
			return k
		}
	}
	return ""
}

// object scans a non-empty object, calling member with each key; member
// scans the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') || !member(key) {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// array scans a non-empty array, calling elem to scan each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	for {
		if !elem() {
			return false
		}
		if s.consume(']') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// plainByte marks the bytes a string in canonical form can hold:
// printable ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str scans a string and returns the bytes between its quotes.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for s.pos < len(s.data) && plainByte[s.data[s.pos]] {
		s.pos++
	}
	content := s.data[start:s.pos]
	return content, s.consume('"')
}

func (s *scanner) string(dst *string) bool {
	content, ok := s.str()
	if ok {
		*dst = s.strs.str(content)
	}
	return ok
}

func (s *scanner) bool(dst *bool) bool {
	for _, w := range [...]string{"false", "true"} {
		if len(s.data)-s.pos >= len(w) && string(s.data[s.pos:s.pos+len(w)]) == w {
			s.pos += len(w)
			*dst = w == "true"
			return true
		}
	}
	return false
}

// digits scans a run of decimal digits.
func (s *scanner) digits() []byte {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.data[start:s.pos]
}

// natural scans JSON's integer part: 0, or digits without a leading zero.
func (s *scanner) natural() ([]byte, bool) {
	tok := s.digits()
	return tok, len(tok) == 1 || len(tok) > 1 && tok[0] != '0'
}

// uint64 scans an unsigned integer that fits in 64 bits.
func (s *scanner) uint64(dst *uint64) bool {
	tok, ok := s.natural()
	var v uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return false
		}
		v = v*10 + d
	}
	*dst = v
	return ok
}

// int scans an integer that fits in bits bits. A fraction or an
// exponent, even in 1e2 or 1.0, is outside the form, and json.Unmarshal
// rejects it too.
func (s *scanner) int(bits uint) (int64, bool) {
	neg := s.consume('-')
	var mag uint64
	switch limit := uint64(1) << (bits - 1); {
	case !s.uint64(&mag):
		return 0, false
	case neg && mag <= limit:
		return -int64(mag), true
	case !neg && mag < limit:
		return int64(mag), true
	}
	return 0, false
}

func (s *scanner) int64(dst *int64) bool {
	v, ok := s.int(64)
	*dst = v
	return ok
}

// float64 scans a number in JSON's grammar that strconv.ParseFloat
// accepts; out of range (1e400) it does not. ParseFloat also rejects an
// exponent without digits, but it accepts a fraction without them (1.).
func (s *scanner) float64(dst *float64) bool {
	start := s.pos
	s.consume('-')
	if _, ok := s.natural(); !ok {
		return false
	}
	if s.consume('.') && len(s.digits()) == 0 {
		return false
	}
	if s.consume('e') || s.consume('E') {
		if !s.consume('+') {
			s.consume('-')
		}
		s.digits()
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	*dst = f
	return err == nil
}

// config scans a param.Config into a fresh slice of its exact length.
func (s *scanner) config(dst *param.Config) bool {
	var tmp [32]int64
	vs := tmp[:0]
	ok := s.array(func() bool {
		vs = append(vs, 0)
		return s.int64(&vs[len(vs)-1])
	})
	*dst = append(make(param.Config, 0, len(vs)), vs...)
	return ok
}

// values scans the name → value map; hint sizes it.
func (s *scanner) values(dst *map[string]int64, hint int) bool {
	m := make(map[string]int64, hint)
	*dst = m
	return s.object(func(key []byte) bool {
		var v int64
		ok := s.int64(&v)
		m[s.strs.str(key)] = v
		return ok
	})
}

// defs scans the register parameters.
func (s *scanner) defs(dst *[]param.Def) bool {
	return s.array(func() bool {
		*dst = append(*dst, param.Def{})
		p := &(*dst)[len(*dst)-1]
		var seen uint
		return s.object(func(key []byte) bool {
			switch field(key, defKeys, &seen) {
			case "name":
				return s.string(&p.Name)
			case "min":
				return s.int64(&p.Min)
			case "max":
				return s.int64(&p.Max)
			case "default":
				return s.int64(&p.Default)
			case "step":
				return s.int64(&p.Step)
			case "unit":
				return s.string(&p.Unit)
			}
			return false
		})
	})
}

// interner shares the strings a connection decodes over and over —
// session names, op names, values-map keys — so decoding them allocates
// once. It is bounded: past maxInterned entries it starts over.
type interner struct{ m map[string]string }

const (
	maxInterned    = 4096
	maxInternedLen = 64
)

func (in *interner) str(b []byte) string {
	if in == nil || len(b) > maxInternedLen {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if in.m == nil || len(in.m) >= maxInterned {
		in.m = make(map[string]string)
	}
	s := string(b)
	in.m[s] = s
	return s
}
