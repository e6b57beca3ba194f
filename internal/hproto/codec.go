package hproto

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"webharmony/internal/param"
)

// The wire codec. Request and Response are encoded by typed appenders and
// decoded by a single-pass parser, without reflection. The contract is
// equivalence with encoding/json, which stays the test oracle:
//
//   - AppendRequest(dst, &r) appends exactly json.Marshal(r) plus '\n',
//     and fails exactly when json.Marshal does; likewise AppendResponse.
//   - DecodeRequest(line) fails exactly when json.Unmarshal(line, &r) does,
//     and on success returns a value reflect.DeepEqual to json.Unmarshal's,
//     quirks included: case-insensitive keys, duplicate keys merging into
//     the struct, the map and the existing slice elements, null leaving
//     scalars alone, and the 10000-deep nesting limit.
//
// A rare token — a string with escapes or invalid UTF-8, or a snapshot's
// raw JSON — is handed to encoding/json for that one token, which is exact
// by construction. FuzzDecodeMessage checks the contract differentially.

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

// DecodeRequest parses one request message (a JSON line; a trailing
// newline is tolerated). It is total: any input yields either a Request
// or an error, never a panic — the server feeds it bytes straight off the
// network, and FuzzDecodeMessage pins that property. The result shares no
// memory with line.
func DecodeRequest(line []byte) (Request, error) { return decodeRequest(line, nil) }

// DecodeResponse parses one response message, with the same guarantees
// as DecodeRequest.
func DecodeResponse(line []byte) (Response, error) { return decodeResponse(line, nil) }

func decodeRequest(line []byte, strs *interner) (Request, error) {
	var req Request
	d := decoder{data: line, strs: strs}
	err := d.top(func(key []byte) error {
		switch canonicalKey(key, requestKeys) {
		case "op":
			return d.string((*string)(&req.Op))
		case "session":
			return d.string(&req.Session)
		case "params":
			return d.defs(&req.Params)
		case "algorithm":
			return d.string(&req.Algorithm)
		case "seed":
			return d.uint64(&req.Seed)
		case "guard_factor":
			return d.float64(&req.GuardFactor)
		case "shift_factor":
			return d.float64(&req.ShiftFactor)
		case "perf":
			return d.float64(&req.Perf)
		case "snapshot":
			return d.raw((*[]byte)(&req.Snapshot), 1)
		}
		return d.skip(1)
	})
	if err != nil {
		return Request{}, err
	}
	return req, nil
}

func decodeResponse(line []byte, strs *interner) (Response, error) {
	var resp Response
	d := decoder{data: line, strs: strs}
	err := d.top(func(key []byte) error {
		switch canonicalKey(key, responseKeys) {
		case "ok":
			return d.bool(&resp.OK)
		case "error":
			return d.string(&resp.Error)
		case "config":
			return d.config(&resp.Config)
		case "values":
			return d.values(&resp.Values, len(resp.Config))
		case "perf":
			return d.float64(&resp.Perf)
		case "have_perf":
			return d.bool(&resp.HavePerf)
		case "iterations":
			return d.int(&resp.Iterations)
		case "sessions":
			return d.strings(&resp.Sessions)
		case "snapshot":
			return d.raw((*[]byte)(&resp.Snapshot), 1)
		}
		return d.skip(1)
	})
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}

// The JSON keys of Request, Response and param.Def.
var (
	requestKeys  = []string{"op", "session", "params", "algorithm", "seed", "guard_factor", "shift_factor", "perf", "snapshot"}
	responseKeys = []string{"ok", "error", "config", "values", "perf", "have_perf", "iterations", "sessions", "snapshot"}
	defKeys      = []string{"name", "min", "max", "default", "step", "unit"}
)

// canonicalKey returns the field key that an object member's unquoted key
// selects, or "" for an unknown member. Like encoding/json it prefers an
// exact match and falls back to a case-insensitive one under Unicode
// simple folding, so "OP", "ſession" (long s) and "oK" (Kelvin sign)
// select "op", "session" and "ok". Every key in keys is lower-case ASCII.
func canonicalKey(key []byte, keys []string) string {
	for _, k := range keys {
		if string(key) == k {
			return k
		}
	}
	var buf [32]byte
	folded := foldName(buf[:0], key)
	for _, k := range keys {
		if len(folded) == len(k) && upperASCIIEqual(folded, k) {
			return k
		}
	}
	return ""
}

// foldName is encoding/json's key folding: ASCII letters upper-cased, any
// other rune mapped to the smallest rune of its simple-fold orbit.
func foldName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// upperASCIIEqual reports whether folded equals k with k's letters
// upper-cased; the two have equal length.
func upperASCIIEqual(folded []byte, k string) bool {
	for i := 0; i < len(k); i++ {
		c := k[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

// maxDepth is encoding/json's nesting limit: the top-level object is at
// depth 1, and opening a container past depth 10000 is an error.
const maxDepth = 10000

// decoder is the single-pass parser behind DecodeRequest and
// DecodeResponse. It validates as it decodes, so the first syntax or type
// error ends the parse; json.Unmarshal fails on the same inputs, and the
// error's text is the only difference.
type decoder struct {
	data []byte
	pos  int
	strs *interner // nil: every decoded string is a fresh copy
}

// top decodes the message: one object, whose members go to field, or a
// bare null, which leaves the zero value; then nothing but whitespace.
func (d *decoder) top(field func(key []byte) error) error {
	if len(d.data) > MaxMessageSize {
		return fmt.Errorf("hproto: message of %d bytes exceeds limit %d", len(d.data), MaxMessageSize)
	}
	var err error
	switch d.peek() {
	case '{':
		err = d.object(field)
	case 'n':
		err = d.literal("null")
	default:
		err = d.errValue()
	}
	if err != nil {
		return err
	}
	if d.ws(); d.pos < len(d.data) {
		return d.errAt("invalid character %q after top-level value")
	}
	return nil
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

var errEOF = errors.New("hproto: unexpected end of JSON input")

// errAt reports the byte at d.pos; format holds one %q for it.
func (d *decoder) errAt(format string) error {
	if d.pos >= len(d.data) {
		return errEOF
	}
	return fmt.Errorf("hproto: "+format+" at offset %d", d.data[d.pos], d.pos)
}

// errValue reports a value that is malformed or of the wrong type for
// its field; either way json.Unmarshal fails too.
func (d *decoder) errValue() error { return d.errAt("unexpected value starting with %q") }

// object parses an object at d.pos, calling field with each member's
// unquoted key, positioned at the member's value, which field consumes.
func (d *decoder) object(field func(key []byte) error) error {
	d.pos++ // '{'
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errAt("invalid character %q looking for an object key")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.errAt("invalid character %q after object key")
		}
		d.pos++
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errAt("invalid character %q after object member")
		}
	}
}

// array parses an array at d.pos, calling elem with each element's index,
// positioned at the element, which elem consumes. It returns the count.
func (d *decoder) array(elem func(i int) error) (int, error) {
	d.pos++ // '['
	if d.peek() == ']' {
		d.pos++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return i + 1, nil
		default:
			return 0, d.errAt("invalid character %q after array element")
		}
	}
}

// plainByte marks the bytes a string can hold as is: printable ASCII
// other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString validates the string at d.pos and moves past it. It returns
// the bytes between the quotes and whether they are the string's value as
// is: no escapes, and valid UTF-8 (encoding/json replaces invalid bytes).
func (d *decoder) scanString() (content []byte, plain bool, err error) {
	start := d.pos + 1
	ascii, escaped := true, false
	for p := start; p < len(d.data); p++ {
		for p < len(d.data) && plainByte[d.data[p]] {
			p++
		}
		if p == len(d.data) {
			break
		}
		switch c := d.data[p]; {
		case c == '"':
			d.pos = p + 1
			content = d.data[start:p]
			return content, !escaped && (ascii || utf8.Valid(content)), nil
		case c == '\\':
			escaped = true
			p++
			if p >= len(d.data) {
				break
			}
			switch d.data[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if p+4 >= len(d.data) || !isHex(d.data[p+1]) || !isHex(d.data[p+2]) || !isHex(d.data[p+3]) || !isHex(d.data[p+4]) {
					d.pos = p
					return nil, false, errors.New("hproto: invalid \\u escape in string")
				}
				p += 4
			default:
				d.pos = p
				return nil, false, d.errAt("invalid character %q in string escape")
			}
		case c < 0x20:
			d.pos = p
			return nil, false, d.errAt("invalid character %q in string literal")
		default:
			ascii = false
		}
	}
	d.pos = len(d.data)
	return nil, false, errEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the string token data[start:end] that is not plain.
func (d *decoder) unquote(start, end int) (string, error) {
	var s string
	err := json.Unmarshal(d.data[start:end], &s) // escapes, invalid UTF-8
	return s, err
}

// key reads an object key. A plain key is returned in place.
func (d *decoder) key() ([]byte, error) {
	start := d.pos
	content, plain, err := d.scanString()
	if err != nil || plain {
		return content, err
	}
	s, err := d.unquote(start, d.pos)
	return []byte(s), err
}

// literal consumes the literal word (true, false or null) at d.pos.
func (d *decoder) literal(word string) error {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return d.errAt("invalid character %q in literal")
	}
	d.pos += len(word)
	return nil
}

// number scans the number at d.pos and returns its token.
func (d *decoder) number() ([]byte, error) {
	start, p := d.pos, d.pos
	digits := func() bool {
		q := p
		for p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9' {
			p++
		}
		return p > q
	}
	if p < len(d.data) && d.data[p] == '-' {
		p++
	}
	switch {
	case p < len(d.data) && d.data[p] == '0':
		p++
	case !digits():
		d.pos = p
		return nil, d.errAt("invalid character %q in numeric literal")
	}
	if p < len(d.data) && d.data[p] == '.' {
		p++
		if !digits() {
			d.pos = p
			return nil, d.errAt("invalid character %q after decimal point in numeric literal")
		}
	}
	if p < len(d.data) && (d.data[p] == 'e' || d.data[p] == 'E') {
		p++
		if p < len(d.data) && (d.data[p] == '+' || d.data[p] == '-') {
			p++
		}
		if !digits() {
			d.pos = p
			return nil, d.errAt("invalid character %q in exponent of numeric literal")
		}
	}
	d.pos = p
	return d.data[start:p], nil
}

// The value decoders below follow encoding/json's rules for their target
// type. null leaves a string, number or bool alone and sets a slice or map
// to nil; any other mismatch is an error.

func (d *decoder) string(dst *string) error {
	switch d.peek() {
	case '"':
		start := d.pos
		content, plain, err := d.scanString()
		switch {
		case err != nil:
			return err
		case plain:
			*dst = d.strs.str(content)
			return nil
		}
		*dst, err = d.unquote(start, d.pos)
		return err
	case 'n':
		return d.literal("null")
	}
	return d.errValue()
}

func (d *decoder) bool(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.errValue()
}

// integer reads an integer's magnitude and sign; null reports null. A
// fraction or an exponent, even in 1e2 or 1.0, is an error, as it is for
// strconv.ParseInt.
func (d *decoder) integer() (mag uint64, neg, null bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return 0, false, true, d.literal("null")
	case c == '-':
		neg = true
		d.pos++
	case c < '0' || c > '9':
		return 0, false, false, d.errValue()
	}
	start, p := d.pos, d.pos
	switch {
	case p < len(d.data) && d.data[p] == '0': // JSON allows no other leading zero
		p++
	case p < len(d.data) && '1' <= d.data[p] && d.data[p] <= '9':
		for ; p < len(d.data) && '0' <= d.data[p] && d.data[p] <= '9'; p++ {
			v := uint64(d.data[p] - '0')
			if mag > (math.MaxUint64-v)/10 {
				return 0, false, false, fmt.Errorf("hproto: number at offset %d overflows", start)
			}
			mag = mag*10 + v
		}
	default:
		d.pos = p
		return 0, false, false, d.errAt("invalid character %q in numeric literal")
	}
	if p < len(d.data) && (d.data[p] == '.' || d.data[p] == 'e' || d.data[p] == 'E') {
		return 0, false, false, fmt.Errorf("hproto: number at offset %d is not an integer", start)
	}
	d.pos = p
	return mag, neg, false, nil
}

// signed reads an integer that fits in bits bits; null reports null.
func (d *decoder) signed(bits uint) (v int64, null bool, err error) {
	start := d.pos
	mag, neg, null, err := d.integer()
	switch limit := uint64(1) << (bits - 1); {
	case err != nil || null:
		return 0, null, err
	case neg && mag <= limit:
		return -int64(mag), false, nil
	case !neg && mag < limit:
		return int64(mag), false, nil
	}
	return 0, false, fmt.Errorf("hproto: number %s at offset %d overflows int%d", d.data[start:d.pos], start, bits)
}

func (d *decoder) int64(dst *int64) error {
	v, null, err := d.signed(64)
	if err == nil && !null {
		*dst = v
	}
	return err
}

func (d *decoder) int(dst *int) error {
	v, null, err := d.signed(strconv.IntSize)
	if err == nil && !null {
		*dst = int(v)
	}
	return err
}

func (d *decoder) uint64(dst *uint64) error {
	start := d.pos
	mag, neg, null, err := d.integer()
	switch {
	case err != nil || null:
		return err
	case neg: // strconv.ParseUint takes no sign, not even in -0
		return fmt.Errorf("hproto: negative number at offset %d for an unsigned field", start)
	}
	*dst = mag
	return nil
}

func (d *decoder) float64(dst *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.errValue()
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64) // out of range (1e400) fails
	if err != nil {
		return fmt.Errorf("hproto: %w", err)
	}
	*dst = f
	return nil
}

// raw copies one JSON value verbatim, as json.RawMessage's UnmarshalJSON
// does, reusing dst's storage: null is kept as the bytes "null".
func (d *decoder) raw(dst *[]byte, depth int) error {
	d.ws()
	start := d.pos
	if err := d.skip(depth); err != nil {
		return err
	}
	*dst = append((*dst)[:0], d.data[start:d.pos]...)
	return nil
}

// config decodes a param.Config through its UnmarshalJSON semantics: a
// fresh []int64 every time, nil for null, null elements decode to 0.
func (d *decoder) config(dst *param.Config) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.errValue()
	}
	var tmp [32]int64
	vs := tmp[:0]
	n, err := d.array(func(int) error {
		vs = append(vs, 0)
		return d.int64(&vs[len(vs)-1])
	})
	if err != nil {
		return err
	}
	*dst = append(make(param.Config, 0, n), vs...)
	return nil
}

// values decodes the name → value map, merging into an existing map;
// hint sizes a new one.
func (d *decoder) values(dst *map[string]int64, hint int) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '{':
	default:
		return d.errValue()
	}
	if *dst == nil {
		*dst = make(map[string]int64, hint)
	}
	m := *dst
	return d.object(func(key []byte) error {
		var v int64
		if err := d.int64(&v); err != nil {
			return err
		}
		m[d.strs.str(key)] = v
		return nil
	})
}

// strings decodes a []string with encoding/json's slice semantics.
func (d *decoder) strings(dst *[]string) error {
	return decodeSlice(d, dst, func(s *string) error { return d.string(s) })
}

// defs decodes the register parameters; each element merges into the
// existing param.Def at its index.
func (d *decoder) defs(dst *[]param.Def) error {
	return decodeSlice(d, dst, func(p *param.Def) error {
		switch d.peek() {
		case 'n':
			return d.literal("null")
		case '{':
		default:
			return d.errValue()
		}
		return d.object(func(key []byte) error {
			switch canonicalKey(key, defKeys) {
			case "name":
				return d.string(&p.Name)
			case "min":
				return d.int64(&p.Min)
			case "max":
				return d.int64(&p.Max)
			case "default":
				return d.int64(&p.Default)
			case "step":
				return d.int64(&p.Step)
			case "unit":
				return d.string(&p.Unit)
			}
			return d.skip(3) // top object, params array, this object
		})
	})
}

// decodeSlice decodes a JSON array into *dst the way encoding/json does:
// element i decodes into the existing element while i < len, into the
// stale element beyond len while i < cap, and into a new zero element
// appended past cap; the slice is then cut to the array's length, [] is a
// new empty slice and null is nil. Duplicate keys can tell these apart.
func decodeSlice[T any](d *decoder, dst *[]T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.errValue()
	}
	s := *dst
	n, err := d.array(func(i int) error {
		if i >= len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				var zero T
				s = append(s, zero) // len == cap == i: grows as reflect.Value.Grow(1)
			}
		}
		return elem(&s[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = make([]T, 0)
	}
	*dst = s[:n]
	return nil
}

// skip validates one value of any kind at d.pos and moves past it; depth
// is the nesting depth of the container holding it.
func (d *decoder) skip(depth int) error {
	var stack []byte // the open containers' closing brackets
	for {
		// A value.
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(stack) >= maxDepth {
				return errors.New("hproto: exceeded max depth")
			}
			d.pos++
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if d.peek() == closer {
				d.pos++
				break
			}
			stack = append(stack, closer)
			if c == '{' {
				if err := d.memberKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if c != '-' && (c < '0' || c > '9') {
				return d.errValue()
			}
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// After a value: close containers until one continues.
		for {
			if len(stack) == 0 {
				return nil
			}
			closer := stack[len(stack)-1]
			c := d.peek()
			if c == closer {
				d.pos++
				stack = stack[:len(stack)-1]
				continue
			}
			if c != ',' {
				return d.errAt("invalid character %q after a value in a container")
			}
			d.pos++
			if closer == '}' {
				if err := d.memberKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// memberKey consumes `"key":` inside a skipped object.
func (d *decoder) memberKey() error {
	if d.peek() != '"' {
		return d.errAt("invalid character %q looking for an object key")
	}
	if _, _, err := d.scanString(); err != nil {
		return err
	}
	if d.peek() != ':' {
		return d.errAt("invalid character %q after object key")
	}
	d.pos++
	return nil
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
