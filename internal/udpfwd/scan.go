package udpfwd

import (
	"errors"

	"github.com/alphawan/alphawan/internal/lora"
)

// Zero-allocation scanning of PUSH_DATA JSON bodies.
//
// Parsed with encoding/json, a PUSH_DATA costs several microseconds and
// a dozen heap allocations per datagram — most of a bridge's per-packet
// CPU budget. The wire bodies the live stack actually sees are a tiny,
// regular subset of JSON — `{"rxpk":[{...},...]}` with flat scalar fields
// — so the bridge scans them in place: field values are parsed
// directly out of the body buffer into a caller-owned rxpkView, strings
// stay as sub-slices, and nothing escapes to the heap.
//
// The scanner is deliberately conservative: any construct outside the
// subset it understands (a "stat" object, exotic escapes, unexpected
// nesting) aborts with errScanFallback and the caller re-parses the
// datagram with encoding/json — correctness never depends on the fast
// path, only speed does. Differential tests in scan_test.go hold the two
// parsers equal over generated and mutated bodies.

// errScanFallback signals a body outside the fast-path subset; the caller
// must re-parse with encoding/json.
var errScanFallback = errors.New("udpfwd: body outside scan subset")

// rxpkView is one scanned rxpk. Datr and Data alias the scanned body and
// are valid only until the caller releases the datagram buffer.
type rxpkView struct {
	Tmst   uint32
	FreqHz uint64
	Chain  int
	RFCh   int
	RSSI   int
	LSNR   float64
	Datr   []byte // e.g. "SF7BW125", unescaped slice into the body
	Data   []byte // base64 PHYPayload, slice into the body
}

// scanRxpks parses every rxpk object in a PUSH_DATA JSON body, appending
// views to dst (pass a reused slice; views alias body). The append is
// all-or-nothing: on error dst's extension is meaningless and the caller
// re-parses the whole datagram with encoding/json, so a body that is
// half-scannable is never half-processed. errScanFallback marks anything
// outside the fast-path subset — including bodies carrying a "stat"
// report, which the slow path knows how to store.
func scanRxpks(body []byte, dst []rxpkView) ([]rxpkView, error) {
	s := scanner{b: body}
	s.ws()
	if !s.eat('{') {
		return dst, errScanFallback
	}
	s.ws()
	if s.eat('}') {
		return dst, nil // empty body: no rxpks
	}
	for {
		key, ok := s.str()
		if !ok {
			return dst, errScanFallback
		}
		s.ws()
		if !s.eat(':') {
			return dst, errScanFallback
		}
		s.ws()
		if string(key) != "rxpk" {
			// "stat" and anything else: let encoding/json handle it.
			return dst, errScanFallback
		}
		var err error
		dst, err = s.rxpkArray(dst)
		if err != nil {
			return dst, err
		}
		s.ws()
		if s.eat(',') {
			s.ws()
			continue
		}
		if !s.eat('}') {
			return dst, errScanFallback
		}
		s.ws()
		if s.i != len(s.b) {
			return dst, errScanFallback // trailing garbage
		}
		return dst, nil
	}
}

type scanner struct {
	b []byte
	i int
	v rxpkView
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str parses a JSON string, returning the raw bytes between the quotes.
// Escapes and raw control bytes force the fallback: no field the fast
// path needs ever contains them (base64 and "SFxBWy" alphabets are
// escape-free), and the strictness keeps this parser's accept set a
// subset of encoding/json's.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '\\' || c < 0x20:
			return nil, false
		case c == '"':
			out := s.b[start:s.i]
			s.i++
			return out, true
		}
		s.i++
	}
	return nil, false
}

func (s *scanner) rxpkArray(dst []rxpkView) ([]rxpkView, error) {
	if !s.eat('[') {
		return dst, errScanFallback
	}
	s.ws()
	if s.eat(']') {
		return dst, nil
	}
	for {
		if err := s.rxpkObject(); err != nil {
			return dst, err
		}
		dst = append(dst, s.v)
		s.ws()
		if s.eat(',') {
			s.ws()
			continue
		}
		if !s.eat(']') {
			return dst, errScanFallback
		}
		return dst, nil
	}
}

func (s *scanner) rxpkObject() error {
	if !s.eat('{') {
		return errScanFallback
	}
	s.v = rxpkView{}
	s.ws()
	if s.eat('}') {
		return nil
	}
	for {
		key, ok := s.str()
		if !ok {
			return errScanFallback
		}
		s.ws()
		if !s.eat(':') {
			return errScanFallback
		}
		s.ws()
		if err := s.rxpkField(key); err != nil {
			return err
		}
		s.ws()
		if s.eat(',') {
			s.ws()
			continue
		}
		if !s.eat('}') {
			return errScanFallback
		}
		return nil
	}
}

func (s *scanner) rxpkField(key []byte) error {
	switch string(key) { // compiler-recognized: no allocation
	case "tmst":
		u, ok := s.uint()
		if !ok {
			return errScanFallback
		}
		s.v.Tmst = uint32(u)
	case "freq":
		hz, ok := s.mhzToHz()
		if !ok {
			return errScanFallback
		}
		s.v.FreqHz = hz
	case "chan":
		n, ok := s.int()
		if !ok {
			return errScanFallback
		}
		s.v.Chain = n
	case "rfch":
		n, ok := s.int()
		if !ok {
			return errScanFallback
		}
		s.v.RFCh = n
	case "rssi":
		n, ok := s.int()
		if !ok {
			return errScanFallback
		}
		s.v.RSSI = n
	case "lsnr":
		f, ok := s.float()
		if !ok {
			return errScanFallback
		}
		s.v.LSNR = f
	case "datr":
		str, ok := s.str()
		if !ok {
			return errScanFallback
		}
		s.v.Datr = str
	case "data":
		str, ok := s.str()
		if !ok {
			return errScanFallback
		}
		s.v.Data = str
	default:
		// Fields the server ignores (time, stat, modu, codr, size…):
		// skip scalars; anything structured falls back.
		return s.skipScalar()
	}
	return nil
}

// skipScalar consumes a string, number, true/false/null — but not nested
// arrays or objects (fallback). Numbers and literals are validated to the
// JSON grammar so the fast path never accepts a body encoding/json would
// reject.
func (s *scanner) skipScalar() error {
	if s.i >= len(s.b) {
		return errScanFallback
	}
	switch c := s.b[s.i]; {
	case c == '"':
		if _, ok := s.str(); !ok {
			return errScanFallback
		}
	case c == '-' || (c >= '0' && c <= '9'):
		s.eat('-')
		if _, ok := s.uint(); !ok {
			return errScanFallback
		}
		if s.eat('.') {
			if _, n := s.digits(); n == 0 {
				return errScanFallback
			}
		}
		if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
			s.i++
			if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
				s.i++
			}
			if _, n := s.digits(); n == 0 {
				return errScanFallback
			}
		}
	case c == 't':
		return s.lit("true")
	case c == 'f':
		return s.lit("false")
	case c == 'n':
		return s.lit("null")
	default:
		return errScanFallback
	}
	return nil
}

func (s *scanner) lit(word string) error {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return errScanFallback
	}
	s.i += len(word)
	return nil
}

// digits accumulates a raw digit run (no leading-zero rule: also used for
// fraction parts, where leading zeros are legal).
func (s *scanner) digits() (uint64, int) {
	start := s.i
	var u uint64
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c < '0' || c > '9' {
			break
		}
		u = u*10 + uint64(c-'0')
		s.i++
	}
	return u, s.i - start
}

// uint parses the integer part of a JSON number: at least one digit, no
// leading zeros (the grammar encoding/json enforces).
func (s *scanner) uint() (uint64, bool) {
	start := s.i
	u, n := s.digits()
	if n == 0 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	return u, true
}

// int parses an optionally negative integer.
func (s *scanner) int() (int, bool) {
	neg := s.eat('-')
	u, ok := s.uint()
	if !ok {
		return 0, false
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// mhzToHz parses a frequency in MHz with up to 6 fractional digits into
// exact integer hertz — no float rounding, so 923.2 is 923200000 Hz, not
// 923199999. More than 6 fractional digits (sub-Hz) forces the fallback.
func (s *scanner) mhzToHz() (uint64, bool) {
	ip, ok := s.uint()
	if !ok {
		return 0, false
	}
	hz := ip * 1_000_000
	if !s.eat('.') {
		return hz, true
	}
	fp, digits := s.digits()
	if digits == 0 || digits > 6 {
		return 0, false
	}
	for ; digits < 6; digits++ {
		fp *= 10
	}
	return hz + fp, true
}

// pow10 holds exactly-representable powers of ten for the manual float
// path: dividing by an exact power of ten is one correctly-rounded
// operation, so short decimals ("-3.5", "9.25") parse exactly.
var pow10 = [...]float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// float parses a plain decimal (no exponent — SNR values never carry
// one; an exponent forces the fallback).
func (s *scanner) float() (float64, bool) {
	neg := s.eat('-')
	ip, ok := s.uint()
	if !ok {
		return 0, false
	}
	f := float64(ip)
	if s.eat('.') {
		fp, digits := s.digits()
		if digits == 0 || digits >= len(pow10) {
			return 0, false
		}
		f += float64(fp) / pow10[digits]
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		return 0, false
	}
	if neg {
		f = -f
	}
	return f, true
}

// parseDatrFast parses "SFxBW125" without Sscanf's reflection (~1.5 µs
// and 5 allocs per call on the legacy path). Anything else — including
// other bandwidths — reports false and the caller uses ParseDatr for the
// full error message.
func parseDatrFast(b []byte) (lora.DR, bool) {
	if len(b) < 8 || b[0] != 'S' || b[1] != 'F' {
		return 0, false
	}
	i := 2
	sf := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		sf = sf*10 + int(b[i]-'0')
		i++
	}
	if len(b)-i != 5 || b[i] != 'B' || b[i+1] != 'W' || b[i+2] != '1' || b[i+3] != '2' || b[i+4] != '5' {
		return 0, false
	}
	f := lora.SF(sf)
	if !f.Valid() {
		return 0, false
	}
	return lora.DRFromSF(f), true
}
