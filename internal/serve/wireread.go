package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// One-pass request decoding. decode reads a body once into one buffer
// and hands it to wireReader, a reflection-free reader for the five
// /v1 request types. The reader takes a strict subset of JSON:
//
//   - a top-level object, with whitespace only where JSON allows it;
//   - exact lowercase tag keys, each at most once;
//   - strings of printable ASCII with no escapes;
//   - well-formed JSON numbers, integers for the int fields;
//   - no null.
//
// On anything else it declines, and encoding/json decodes the same
// bytes into a zeroed value. So encoding/json stays the one definition
// of what the server accepts — values, errors, case-insensitive keys,
// ignored trailing bytes — and the fast path only has to agree with it
// on the subset, which FuzzDecodeRequest checks differentially.
// json.Marshal output of the request types lies in the subset.

// wireRequest is a /v1 request type the wire reader can fill.
type wireRequest[T any] interface {
	*T
	readWire(r *wireReader) bool
}

// readBody reads the whole body into one buffer, presized from
// Content-Length (the handler wrapper caps the body at maxBody). On a
// read error it returns the bytes that did arrive along with the error.
func readBody(r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		// One byte past the length lets the read that reports EOF land
		// without growing the buffer.
		size = min(r.ContentLength, maxBody) + 1
	}
	buf := make([]byte, 0, size)
	for {
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeBody parses body into v: the wire reader first, encoding/json
// when it declines. readErr is the error that ended the body read; the
// fallback decoder then sees it after the bytes that did arrive, as a
// decoder streaming from the body would have, so an oversized body is
// refused (and an object complete before the cap is still served)
// exactly as before.
func decodeBody[T any, P wireRequest[T]](body []byte, readErr error, v P) error {
	if readErr == nil {
		r := wireReader{b: body}
		if v.readWire(&r) {
			return nil
		}
		var zero T
		*v = zero
	}
	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	if err := json.NewDecoder(src).Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// errReader replays a body read error to the fallback decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// wireReader walks one body. Every method reports false when the input
// leaves the subset, and the caller then declines the whole body.
type wireReader struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (r *wireReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (r *wireReader) next(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// object reads {"key": value, ...}. field reads the value of one key
// and returns a bit that names the key; an unknown key returns false.
// A repeated key declines, since encoding/json would merge the values.
// Bytes after the closing brace are left unread, as json.Decoder does.
func (r *wireReader) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen uint64
	for {
		key, ok := r.rawString()
		if !ok || !r.next(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&(1<<bit) != 0 {
			return false
		}
		seen |= 1 << bit
		if r.next('}') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// array reads [elem, elem, ...]; elem reads one element.
func (r *wireReader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if r.next(']') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// rawString reads a string of printable ASCII without escapes and
// returns its contents, which are then exactly its bytes.
func (r *wireReader) rawString() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	for j := r.i; j < len(r.b); j++ {
		switch c := r.b[j]; {
		case c == '"':
			s := r.b[r.i:j]
			r.i = j + 1
			return s, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (r *wireReader) str(dst *string) bool {
	s, ok := r.rawString()
	*dst = string(s)
	return ok
}

// number reads a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which strconv also
// parses; strconv alone would take more (hex, inf, underscores).
func (r *wireReader) number() ([]byte, bool) {
	r.ws()
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	lit := b[r.i:i]
	r.i = i
	return lit, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// The numeric readers parse as encoding/json does: ParseFloat for
// float64, ParseInt with the field's width for the integers. A range
// or syntax error declines, so the fallback reports it. string(lit)
// does not allocate, because strconv copies its input only on error.

func (r *wireReader) float(dst *float64) bool {
	lit, ok := r.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (r *wireReader) int64(dst *int64) bool {
	lit, ok := r.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = n
	return err == nil
}

func (r *wireReader) int(dst *int) bool {
	var n int64
	if !r.int64(&n) || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// countHint estimates, without validating, how many numbers and how
// many nested arrays the array at the front of b holds, so each slice
// is allocated once. In a matrix of numbers the first "]]" closes it,
// and its commas separate the numbers, N numbers by N-1 commas; each
// number takes at least two bytes with its comma, which bounds the
// estimate for any input. bytes.Count is vectorized, so the pre-scan
// costs little beside parsing.
func countHint(b []byte, closing string) (nums, inner int) {
	end := bytes.Index(b, []byte(closing))
	if end < 0 {
		end = len(b)
	}
	seg := b[:end]
	nums = min(bytes.Count(seg, []byte(","))+1, len(seg)/2+1)
	inner = min(max(bytes.Count(seg, []byte("["))-1, 0), nums)
	return nums, inner
}

// floats reads an array of numbers; [] gives an empty, non-nil slice,
// as encoding/json does.
func (r *wireReader) floats(dst *[]float64) bool {
	r.ws()
	n, _ := countHint(r.b[r.i:], "]")
	out := make([]float64, 0, n)
	ok := r.array(func() bool {
		var f float64
		if !r.float(&f) {
			return false
		}
		out = append(out, f)
		return true
	})
	*dst = out
	return ok
}

// ints mirrors floats. One generic reader taking the element parser
// as a func value would move every element to the heap.
func (r *wireReader) ints(dst *[]int) bool {
	r.ws()
	n, _ := countHint(r.b[r.i:], "]")
	out := make([]int, 0, n)
	ok := r.array(func() bool {
		var v int
		if !r.int(&v) {
			return false
		}
		out = append(out, v)
		return true
	})
	*dst = out
	return ok
}

// matrix reads an array of number arrays into one flat backing slice;
// each row is a sub-slice capped at its own end, so appending to one
// row can never overwrite the next.
func (r *wireReader) matrix(dst *[][]float64) bool {
	r.ws()
	n, rows := countHint(r.b[r.i:], "]]")
	flat := make([]float64, 0, n)
	out := make([][]float64, 0, rows)
	ok := r.array(func() bool {
		start := len(flat)
		ok := r.array(func() bool {
			var f float64
			if !r.float(&f) {
				return false
			}
			flat = append(flat, f)
			return true
		})
		out = append(out, flat[start:len(flat):len(flat)])
		return ok
	})
	*dst = out
	return ok
}

func (v *DataJSON) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "x":
			return 0, r.matrix(&v.X)
		case "y":
			return 1, r.floats(&v.Y)
		}
		return 0, false
	})
}

func (v *CandidateJSON) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "name":
			return 0, r.str(&v.Name)
		case "theta":
			return 1, r.floats(&v.Theta)
		}
		return 0, false
	})
}

func (v *FitRequest) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "tenant":
			return 0, r.str(&v.Tenant)
		case "seed":
			return 1, r.int64(&v.Seed)
		case "degrade":
			return 2, r.str(&v.Degrade)
		case "data":
			return 3, v.Data.readWire(r)
		}
		return 0, false
	})
}

func (v *CertifyRequest) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "tenant":
			return 0, r.str(&v.Tenant)
		case "data":
			return 1, v.Data.readWire(r)
		}
		return 0, false
	})
}

func (v *SelectRequest) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "tenant":
			return 0, r.str(&v.Tenant)
		case "seed":
			return 1, r.int64(&v.Seed)
		case "epsilon":
			return 2, r.float(&v.Epsilon)
		case "candidates":
			cands := []CandidateJSON{}
			ok := r.array(func() bool {
				var c CandidateJSON
				if !c.readWire(r) {
					return false
				}
				cands = append(cands, c)
				return true
			})
			v.Candidates = cands
			return 3, ok
		case "data":
			return 4, v.Data.readWire(r)
		}
		return 0, false
	})
}

func (v *DensityRequest) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "tenant":
			return 0, r.str(&v.Tenant)
		case "seed":
			return 1, r.int64(&v.Seed)
		case "feature":
			return 2, r.int(&v.Feature)
		case "lo":
			return 3, r.float(&v.Lo)
		case "hi":
			return 4, r.float(&v.Hi)
		case "epsilon":
			return 5, r.float(&v.Epsilon)
		case "kind":
			return 6, r.str(&v.Kind)
		case "bins":
			return 7, r.int(&v.Bins)
		case "bin_choices":
			return 8, r.ints(&v.BinChoices)
		case "clip":
			return 9, r.float(&v.Clip)
		case "data":
			return 10, v.Data.readWire(r)
		}
		return 0, false
	})
}

func (v *SummaryRequest) readWire(r *wireReader) bool {
	return r.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "tenant":
			return 0, r.str(&v.Tenant)
		case "seed":
			return 1, r.int64(&v.Seed)
		case "feature":
			return 2, r.int(&v.Feature)
		case "lo":
			return 3, r.float(&v.Lo)
		case "hi":
			return 4, r.float(&v.Hi)
		case "bins":
			return 5, r.int(&v.Bins)
		case "quantiles":
			return 6, r.floats(&v.Quantiles)
		case "epsilon":
			return 7, r.float(&v.Epsilon)
		case "data":
			return 8, v.Data.readWire(r)
		}
		return 0, false
	})
}
