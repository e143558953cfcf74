package ctlplane

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/cluster"
	"repro/internal/runtime"
)

// The poll loop's two messages, PollRequest and PollResponse, go through a
// hand-written codec instead of encoding/json's reflection. The bytes stay
// JSON, and exactly json.Marshal's: the same keys in field order, the same
// omitempty, floats in encoding/json's ES6 format and strings with its
// HTML-safe escaping, so any JSON tool reads them and json.Marshal stays the
// test oracle (the types implement no json.Marshaler). Numbers are parsed
// by strconv.ParseFloat, as encoding/json parses them, so every float keeps
// its bits across the wire.

// maxBody bounds every message body either side reads. The largest message
// is a work item of maxStreamsPerServer specs at ~110 bytes each, about
// 110 KiB; 1 MiB leaves room for long stream names.
const maxBody = 1 << 20

var errTooLarge = fmt.Errorf("ctlplane: message body over %d bytes", maxBody)

// readBody reads r to EOF into buf[:0], growing it as needed, and refuses a
// body longer than maxBody.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if buf == nil {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBody {
			return buf, errTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// encoder appends one message as json.Marshal would write it. Like
// json.Marshal it refuses a float JSON cannot carry (NaN, ±Inf).
type encoder struct {
	b       []byte
	refused bool
	value   float64 // the first refused float
}

// raw appends s verbatim: keys with their punctuation, as `,"epoch":`.
func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(n int)     { e.b = strconv.AppendInt(e.b, int64(n), 10) }
func (e *encoder) uint(n uint64) { e.b = strconv.AppendUint(e.b, n, 10) }
func (e *encoder) str(s string)  { e.b = appendJSONString(e.b, s) }

// float appends f in encoding/json's format: strconv's shortest 'f' form,
// switching to 'e' below 1e-6 and from 1e21 on, with a one-digit negative
// exponent left unpadded (1e-07 becomes 1e-7).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if !e.refused {
			e.refused, e.value = true, f
		}
		e.b = append(e.b, '0')
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

func (e *encoder) done() ([]byte, error) {
	if e.refused {
		return e.b, fmt.Errorf("ctlplane: unsupported value: %v", e.value)
	}
	return e.b, nil
}

// appendJSONString appends s quoted as json.Marshal quotes it: <, > and &
// escaped for HTML, control bytes escaped, invalid UTF-8 replaced by
// U+FFFD, and U+2028/U+2029 escaped for JSONP.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendPollRequest appends m's encoding, byte for byte json.Marshal(m).
func appendPollRequest(b []byte, m *PollRequest) ([]byte, error) {
	e := encoder{b: b}
	e.raw(`{"server":`)
	e.int(m.Server)
	e.raw(`,"incarnation":`)
	e.uint(m.Incarnation)
	if m.WaitMS != 0 {
		e.raw(`,"wait_ms":`)
		e.int(m.WaitMS)
	}
	if o := m.Done; o != nil {
		e.raw(`,"done":{"epoch":`)
		e.int(o.Epoch)
		e.raw(`,"version":`)
		e.uint(o.Version)
		if o.Reject != "" {
			e.raw(`,"reject":`)
			e.str(o.Reject)
		}
		e.raw(`,"result":{"LatSum":`)
		e.float(o.Result.LatSum)
		e.raw(`,"Frames":`)
		e.int(o.Result.Frames)
		e.raw(`,"MaxJitter":`)
		e.float(o.Result.MaxJitter)
		e.raw(`}}`)
	}
	e.raw(`}`)
	return e.done()
}

// appendPollResponse appends m's encoding, byte for byte json.Marshal(m).
func appendPollResponse(b []byte, m *PollResponse) ([]byte, error) {
	e := encoder{b: b}
	e.raw(`{`)
	if m.NoWork {
		e.raw(`"no_work":true,`)
	}
	if m.Shutdown {
		e.raw(`"shutdown":true,`)
	}
	e.raw(`"epoch":`)
	e.int(m.Epoch)
	e.raw(`,"version":`)
	e.uint(m.Version)
	e.raw(`,"specs":`)
	if m.Specs == nil {
		e.raw(`null`)
	} else {
		e.raw(`[`)
		for i := range m.Specs {
			s := &m.Specs[i]
			if i > 0 {
				e.raw(`,`)
			}
			e.raw(`{"Name":`)
			e.str(s.Name)
			e.raw(`,"Period":`)
			e.float(s.Period)
			e.raw(`,"Offset":`)
			e.float(s.Offset)
			e.raw(`,"Proc":`)
			e.float(s.Proc)
			e.raw(`,"Bits":`)
			e.float(s.Bits)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	e.raw(`,"server_spec":{"Name":`)
	e.str(m.Server.Name)
	e.raw(`,"Uplink":`)
	e.float(m.Server.Uplink)
	e.raw(`,"SpeedFactor":`)
	e.float(m.Server.SpeedFactor)
	e.raw(`},"horizon":`)
	e.float(m.Horizon)
	e.raw(`}`)
	return e.done()
}

var errMalformed = errors.New("ctlplane: malformed message")

// decoder parses the poll loop's messages. It accepts a subset of what
// json.Unmarshal accepts — exact keys, each at most once, no unknown keys,
// null only where json.Marshal writes it — and for what it accepts yields
// the value json.Unmarshal yields into a zero message. A decoder keeps its
// storage between messages: the Specs and Done it returns alias that
// storage until its next call, and a string equal to the one it held at
// the same place last time is reused rather than allocated.
type decoder struct {
	b     []byte
	i     int
	bad   bool
	specs []cluster.StreamSpec
	done  Outcome
	text  []byte // unescaped string bytes, reused
}

var (
	requestKeys  = []string{"server", "incarnation", "wait_ms", "done"}
	outcomeKeys  = []string{"epoch", "version", "reject", "result"}
	resultKeys   = []string{"LatSum", "Frames", "MaxJitter"}
	responseKeys = []string{"no_work", "shutdown", "epoch", "version", "specs", "server_spec", "horizon"}
	specKeys     = []string{"Name", "Period", "Offset", "Proc", "Bits"}
	serverKeys   = []string{"Name", "Uplink", "SpeedFactor"}
)

// pollRequest parses b into *m.
func (d *decoder) pollRequest(b []byte, m *PollRequest) error {
	d.b, d.i, d.bad = b, 0, false
	*m = PollRequest{}
	d.expect('{')
	for seen := uint32(0); ; {
		switch d.field(requestKeys, &seen) {
		case -1:
			return d.end()
		case 0:
			m.Server = d.int()
		case 1:
			m.Incarnation = d.uint()
		case 2:
			m.WaitMS = d.int()
		case 3:
			if !d.null() {
				d.outcome(&d.done)
				m.Done = &d.done
			}
		}
	}
}

func (d *decoder) outcome(o *Outcome) {
	reject := o.Reject
	*o = Outcome{}
	d.expect('{')
	for seen := uint32(0); ; {
		switch d.field(outcomeKeys, &seen) {
		case -1:
			return
		case 0:
			o.Epoch = d.int()
		case 1:
			o.Version = d.uint()
		case 2:
			o.Reject = d.str(reject)
		case 3:
			d.result(&o.Result)
		}
	}
}

func (d *decoder) result(r *runtime.ServerEvalResult) {
	d.expect('{')
	for seen := uint32(0); ; {
		switch d.field(resultKeys, &seen) {
		case -1:
			return
		case 0:
			r.LatSum = d.float()
		case 1:
			r.Frames = d.int()
		case 2:
			r.MaxJitter = d.float()
		}
	}
}

// pollResponse parses b into *m.
func (d *decoder) pollResponse(b []byte, m *PollResponse) error {
	d.b, d.i, d.bad = b, 0, false
	server := m.Server.Name
	*m = PollResponse{}
	d.expect('{')
	for seen := uint32(0); ; {
		switch d.field(responseKeys, &seen) {
		case -1:
			return d.end()
		case 0:
			m.NoWork = d.boolean()
		case 1:
			m.Shutdown = d.boolean()
		case 2:
			m.Epoch = d.int()
		case 3:
			m.Version = d.uint()
		case 4:
			m.Specs = d.specList()
		case 5:
			d.server(&m.Server, server)
		case 6:
			m.Horizon = d.float()
		}
	}
}

// server parses a server object into *s (zero on entry); name is the name
// held there before.
func (d *decoder) server(s *cluster.Server, name string) {
	d.expect('{')
	for seen := uint32(0); ; {
		switch d.field(serverKeys, &seen) {
		case -1:
			return
		case 0:
			s.Name = d.str(name)
		case 1:
			s.Uplink = d.float()
		case 2:
			s.SpeedFactor = d.float()
		}
	}
}

// specList parses a spec array, or null, into the decoder's spec storage.
func (d *decoder) specList() []cluster.StreamSpec {
	if d.null() {
		return nil
	}
	specs := d.specs[:0]
	if specs == nil {
		specs = make([]cluster.StreamSpec, 0, 8)
	}
	d.expect('[')
	if d.peek() == ']' {
		d.i++
		return specs
	}
	for !d.bad {
		if len(specs) == cap(specs) {
			specs = append(specs, cluster.StreamSpec{})
		} else {
			specs = specs[:len(specs)+1]
		}
		d.spec(&specs[len(specs)-1])
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			d.specs = specs
			return specs
		default:
			d.fail()
		}
	}
	return nil
}

// spec parses a spec object into *s, which holds the spec parsed at the
// same index of an earlier message.
func (d *decoder) spec(s *cluster.StreamSpec) {
	name := s.Name
	*s = cluster.StreamSpec{}
	d.expect('{')
	for seen := uint32(0); ; {
		switch d.field(specKeys, &seen) {
		case -1:
			return
		case 0:
			s.Name = d.str(name)
		case 1:
			s.Period = d.float()
		case 2:
			s.Offset = d.float()
		case 3:
			s.Proc = d.float()
		case 4:
			s.Bits = d.float()
		}
	}
}

func (d *decoder) fail() {
	d.bad = true
	d.i = len(d.b)
}

// end checks that nothing but whitespace follows the message.
func (d *decoder) end() error {
	if d.peek(); d.bad || d.i != len(d.b) {
		return errMalformed
	}
	return nil
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) expect(c byte) {
	if d.peek() != c {
		d.fail()
		return
	}
	d.i++
}

// field reads up to the next member's value in the object just entered
// and returns the member key's index in keys, or -1 at the closing brace
// and on error. A key outside keys, or one already in *seen, is an error.
func (d *decoder) field(keys []string, seen *uint32) int {
	if d.bad {
		return -1
	}
	switch d.peek() {
	case '}':
		d.i++
		return -1
	case ',':
		if *seen == 0 {
			d.fail()
			return -1
		}
		d.i++
		d.peek()
	default:
		if *seen != 0 {
			d.fail()
			return -1
		}
	}
	// Keys are matched on their raw bytes: an escaped spelling of a key is
	// refused, never misread.
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		d.fail()
		return -1
	}
	start := d.i + 1
	end := start
	for end < len(d.b) && d.b[end] != '"' && d.b[end] != '\\' {
		end++
	}
	if end >= len(d.b) || d.b[end] != '"' {
		d.fail()
		return -1
	}
	key := d.b[start:end]
	d.i = end + 1
	// Try the key after the last one seen first: json.Marshal writes keys
	// in field order.
	k := bits.Len32(*seen)
	if k >= len(keys) || string(key) != keys[k] {
		k = 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
	}
	if k == len(keys) || *seen&(1<<k) != 0 {
		d.fail()
		return -1
	}
	*seen |= 1 << k
	d.expect(':')
	if d.bad {
		return -1
	}
	return k
}

func (d *decoder) literal(s string) bool {
	if d.peek() != s[0] || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *decoder) null() bool { return d.literal("null") }

func (d *decoder) boolean() bool {
	switch {
	case d.literal("true"):
		return true
	case d.literal("false"):
	default:
		d.fail()
	}
	return false
}

// number scans one JSON number literal and returns its bytes.
func (d *decoder) number() []byte {
	d.peek()
	start := d.i
	d.skip('-')
	if !d.skip('0') && !d.digits() {
		d.fail()
		return nil
	}
	if d.skip('.') && !d.digits() {
		d.fail()
		return nil
	}
	if d.skip('e') || d.skip('E') {
		if !d.skip('+') {
			d.skip('-')
		}
		if !d.digits() {
			d.fail()
			return nil
		}
	}
	return d.b[start:d.i]
}

// skip consumes c if it is the next byte.
func (d *decoder) skip(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	n := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > n
}

func (d *decoder) float() float64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail()
	}
	return f
}

func (d *decoder) int() int {
	lit := d.number()
	if d.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		d.fail()
	}
	return int(n)
}

func (d *decoder) uint() uint64 {
	lit := d.number()
	if d.bad {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		d.fail()
	}
	return n
}

// str reads a JSON string, returning prev itself when the text equals it.
func (d *decoder) str(prev string) string {
	if d.peek() != '"' {
		d.fail()
		return ""
	}
	d.i++
	start, plain := d.i, true
	for {
		if d.i >= len(d.b) {
			d.fail()
			return ""
		}
		c := d.b[d.i]
		switch {
		case c == '"':
			text := d.b[start:d.i]
			d.i++
			if !plain || !utf8.Valid(text) {
				text = d.unquote(text)
			}
			if string(text) == prev {
				return prev
			}
			return string(text)
		case c < ' ':
			d.fail()
			return ""
		case c == '\\':
			plain = false
			d.i++
			if d.i >= len(d.b) {
				d.fail()
				return ""
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				if hex4(d.b[d.i+1:]) < 0 {
					d.fail()
					return ""
				}
				d.i += 5
			default:
				d.fail()
				return ""
			}
		default:
			d.i++
		}
	}
}

// hex4 decodes the four hex digits that open s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote decodes the body of a string str has already validated, as
// encoding/json does: escapes resolved, a lone or broken surrogate and each
// invalid UTF-8 byte replaced by U+FFFD.
func (d *decoder) unquote(s []byte) []byte {
	t := d.text[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				t = append(t, '\b')
			case 'f':
				t = append(t, '\f')
			case 'n':
				t = append(t, '\n')
			case 'r':
				t = append(t, '\r')
			case 't':
				t = append(t, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(s[i+2:])); dec != unicode.ReplacementChar {
							t = utf8.AppendRune(t, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				t = utf8.AppendRune(t, r)
				continue
			default: // '"', '\\', '/'
				t = append(t, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			t = append(t, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			t = utf8.AppendRune(t, r)
			i += size
		}
	}
	d.text = t
	return t
}
