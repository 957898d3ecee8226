package serve

// This file is the request path's decode stage. Each /v1/answer and
// /v1/update body is read whole, then decoded in one hand-written pass:
//
//   - The pass validates the body's first JSON value against the full
//     RFC 8259 grammar, nesting at most maxDepth deep, as encoding/json's
//     scanner does, and ignores any bytes after it, as json.Decoder does.
//   - It decodes into the endpoint's wire struct with encoding/json's rules
//     for that struct: keys match exactly, else under bytes.EqualFold;
//     unknown keys are skipped; a repeated key decodes again into the same
//     field; null leaves a scalar or struct as it is and sets a list to nil;
//     a value of the wrong type is an error.
//   - The policy, workload and options specs stay byte ranges of the body.
//     The plan alias maps those exact bytes to the canonical plan key, so a
//     repeated spec is neither copied, decoded nor re-canonicalised.
//   - x, base, delta.values and delta.cells are scanned in place. A short
//     integer token converts exactly without strconv.ParseFloat.
//
// Strings and keys holding escapes or bytes outside ASCII are unescaped by
// encoding/json, one token at a time. FuzzAnswerWire and FuzzUpdateWire hold
// the pass to json.Decoder decoding into AnswerRequest and UpdateRequest.
//
// The canonical key (planKey) stays the identity everywhere: the plan
// cache, plan_key on the wire, streamKey and the WAL. An alias entry holds
// only that key and its hash, never a plan, and is added only once its plan
// has built.

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// maxBodyBytes caps a request body. The largest legitimate body, a
// 1024×1024 grid database in x, is about 24 MB.
const maxBodyBytes = 64 << 20

// maxDepth is encoding/json's nesting limit: arrays and objects nested
// deeper than this are a syntax error.
const maxDepth = 10000

// maxPooled caps each buffer a decoder keeps when it goes back to
// decoderPool, so a rare large body does not stay resident. It also caps
// how far a body buffer is sized from Content-Length before the bytes
// arrive.
const maxPooled = 1 << 20

// wireHead is the part of a request body the preamble reads.
type wireHead struct {
	Tenant    string
	TimeoutMS int64
}

// answerWire is AnswerRequest as the request path decodes it.
type answerWire struct {
	wireHead
	Epsilon float64
	X       []float64
	Stream  bool
}

// updateWire is UpdateRequest as the request path decodes it.
type updateWire struct {
	wireHead
	Base  []float64
	Delta deltaWire
}

// deltaWire is DeltaSpec as the request path decodes it.
type deltaWire struct {
	Cells  []int
	Values []float64
}

// The keys each wire struct decodes: the JSON names of its exported twin
// (TestWireTagsMatchExported keeps them equal).
var (
	headKeys   = []string{"tenant", "policy", "workload", "options", "timeout_ms"}
	answerKeys = append(slices.Clip(headKeys), "epsilon", "x", "stream")
	updateKeys = append(slices.Clip(headKeys), "base", "delta")
	deltaKeys  = []string{"cells", "values"}
)

// members is a struct the decoder fills from a JSON object: member decodes
// the value of the object's key name.
type members interface {
	member(d *decoder, name []byte) error
}

// wireBody is an endpoint's wire struct: the decoder fills it, and the
// preamble reads its head.
type wireBody interface {
	members
	wire() *wireHead
}

func (h *wireHead) wire() *wireHead { return h }

func (a *answerWire) member(d *decoder, name []byte) error {
	switch key := match(name, answerKeys); key {
	case "epsilon":
		return number(d, &a.Epsilon, (*decoder).floatNum)
	case "x":
		return array(d, &a.X, &d.floats, (*decoder).floatNum)
	case "stream":
		return d.boolean(&a.Stream)
	default:
		return a.headMember(d, key)
	}
}

func (u *updateWire) member(d *decoder, name []byte) error {
	switch key := match(name, updateKeys); key {
	case "base":
		return array(d, &u.Base, &d.floats, (*decoder).floatNum)
	case "delta":
		return d.object(&u.Delta)
	default:
		return u.headMember(d, key)
	}
}

// headMember decodes the value of a head key, or skips the value of a key
// no field takes ("").
func (h *wireHead) headMember(d *decoder, key string) error {
	switch key {
	case "tenant":
		return d.text(&h.Tenant)
	case "policy":
		return d.spec(specPolicy)
	case "workload":
		return d.spec(specWorkload)
	case "options":
		return d.spec(specOptions)
	case "timeout_ms":
		return number(d, &h.TimeoutMS, (*decoder).int64Num)
	}
	return d.skip()
}

func (dw *deltaWire) member(d *decoder, name []byte) error {
	switch match(name, deltaKeys) {
	case "cells":
		return array(d, &dw.Cells, nil, (*decoder).intNum)
	case "values":
		return array(d, &dw.Values, &d.floats, (*decoder).floatNum)
	}
	return d.skip()
}

// match returns the key of keys that name matches the way encoding/json
// matches an object key to a struct field: exactly, else under
// bytes.EqualFold. It returns "" when no key matches.
func match(name []byte, keys []string) string {
	for _, k := range keys {
		if string(name) == k {
			return k
		}
	}
	for _, k := range keys {
		if strings.EqualFold(string(name), k) {
			return k
		}
	}
	return ""
}

// The three spec fields, in the order the alias spelling lists them.
const (
	specPolicy = iota
	specWorkload
	specOptions
)

// rawSpec is one occurrence of a spec key's value: a slice of the body.
type rawSpec struct {
	field int
	raw   []byte
}

// decoder is the state of one body's decode. Pooled decoders keep their
// buffers, so an alias hit allocates only the http.MaxBytesReader and what
// the request keeps: its tenant and float lists (TestDecodeAllocs).
type decoder struct {
	b      []byte    // the body
	i      int       // offset of the next unread byte
	depth  int       // arrays and objects open at b[i]
	open   []byte    // closing bracket of each container skip has open
	specs  []rawSpec // every spec occurrence, in body order
	floats []float64 // scratch for a float list decoded into a nil slice
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// release returns d to decoderPool, dropping its references into the body
// and any buffer over maxPooled.
func (d *decoder) release() {
	clear(d.specs)
	d.i, d.depth, d.specs, d.open = 0, 0, d.specs[:0], d.open[:0]
	if cap(d.b) > maxPooled {
		d.b = nil
	}
	if cap(d.floats)*8 > maxPooled {
		d.floats = nil
	}
	decoderPool.Put(d)
}

// read reads the whole body into d.b. size is the request's Content-Length,
// -1 when unknown; the buffer is sized from it up to maxPooled, so a false
// length cannot make the server allocate ahead of the bytes.
func (d *decoder) read(r io.Reader, size int64) error {
	// One byte of headroom leaves room for the read that returns io.EOF.
	if want := int(min(max(size, 0), maxPooled)) + 1; cap(d.b) < want {
		d.b = make([]byte, 0, want)
	}
	b := d.b[:0]
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, len(b))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.b = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decode reads the request body, capped at s.maxBody, into req and
// resolves its plan key. A body over the cap fails with
// *http.MaxBytesError, whatever its content.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req wireBody) (specRef, error) {
	d := decoderPool.Get().(*decoder)
	defer d.release()
	if err := d.read(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength); err != nil {
		return specRef{}, err
	}
	if err := d.object(req); err != nil {
		return specRef{}, err
	}
	return s.resolve(d.specs)
}

// errorf reports the byte at d.i, or the end of the body, as not what the
// grammar or the field wants there.
func (d *decoder) errorf(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("serve: unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("serve: invalid character %q at byte %d, want %s", d.b[d.i], d.i, want)
}

// next skips whitespace and returns the byte at d.i, or 0 at the end (a
// byte no JSON value starts with).
func (d *decoder) next() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// push opens an array or object at d.i.
func (d *decoder) push() error {
	if d.depth++; d.depth > maxDepth {
		return fmt.Errorf("serve: JSON nested deeper than %d at byte %d", maxDepth, d.i)
	}
	d.i++
	return nil
}

// pop closes the array or object whose closing bracket is at d.i.
func (d *decoder) pop() {
	d.i++
	d.depth--
}

// literal consumes lit, one of true, false and null, at d.i.
func (d *decoder) literal(lit string) error {
	for j := range len(lit) {
		if d.i >= len(d.b) || d.b[d.i] != lit[j] {
			return d.errorf(lit)
		}
		d.i++
	}
	return nil
}

// object decodes the object at d.i into v, or leaves v as it is for null.
// Any other value is the wrong type.
func (d *decoder) object(v members) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.errorf("an object or null")
	}
	if err := d.push(); err != nil {
		return err
	}
	if d.next() == '}' {
		d.pop()
		return nil
	}
	for {
		tok, plain, err := d.name()
		if err != nil {
			return err
		}
		name := tok[1 : len(tok)-1]
		if !plain {
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				return err
			}
			name = []byte(s)
		}
		if err := v.member(d, name); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case '}':
			d.pop()
			return nil
		default:
			return d.errorf("',' or '}' after an object member")
		}
	}
}

// name scans an object key and the ':' after it, returning the key's
// string token as str does.
func (d *decoder) name() (tok []byte, plain bool, err error) {
	if d.next() != '"' {
		return nil, false, d.errorf("an object key")
	}
	if tok, plain, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.next() != ':' {
		return nil, false, d.errorf("':' after an object key")
	}
	d.i++
	return tok, plain, nil
}

// str scans the string at d.i and returns its token, quotes included.
// plain reports that it holds no escape and no byte outside ASCII, so the
// bytes between the quotes are its value.
func (d *decoder) str() (tok []byte, plain bool, err error) {
	b, start := d.b, d.i
	plain = true
	for i := start + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:d.i], plain, nil
		case c == '\\':
			plain = false
			n := escapeLen(b[i:])
			if n == 0 {
				d.i = min(i+1, len(b))
				return nil, false, d.errorf("an escape: one of \"\\/bfnrt or u and four hex digits")
			}
			i += n
		case c < 0x20:
			d.i = i
			return nil, false, d.errorf("a string byte (control characters must be escaped)")
		case c >= 0x80:
			plain = false
			i++
		default:
			i++
		}
	}
	d.i = len(b)
	return nil, false, d.errorf("a closing '\"'")
}

// escapeLen returns the length of the valid escape sequence b starts with
// ('\\' first), or 0 if there is none.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(b) < 6 {
			return 0
		}
		for _, c := range b[2:6] {
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
				return 0
			}
		}
		return 6
	}
	return 0
}

// text decodes a string, or null (which leaves *dst as it is), into *dst.
func (d *decoder) text(dst *string) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.errorf("a string or null")
	}
	tok, plain, err := d.str()
	if err != nil {
		return err
	}
	if !plain {
		return json.Unmarshal(tok, dst)
	}
	*dst = string(tok[1 : len(tok)-1])
	return nil
}

// boolean decodes true or false, or null (which leaves *dst as it is), into
// *dst.
func (d *decoder) boolean(dst *bool) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.errorf("true, false or null")
}

// number decodes a number, or null (which leaves *dst as it is), into *dst
// with conv.
func number[T int64 | float64](d *decoder, dst *T, conv func(*decoder) (T, error)) error {
	switch c := d.next(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		v, err := conv(d)
		*dst = v
		return err
	}
	return d.errorf("a number or null")
}

// array decodes an array of numbers, or null, into *dst as encoding/json
// decodes a slice, converting each number with conv:
//
//   - null sets nil, even after an earlier occurrence of the key;
//   - [] is empty and non-nil;
//   - otherwise the elements go into (*dst)[:cap(*dst)], growing it as
//     append does, and a null element leaves the value already there (0 in
//     fresh memory);
//   - an element that is not a number or null, or that conv rejects, is an
//     error.
//
// Into a slice with no capacity, the elements are scanned into *scratch,
// when not nil, and copied out at their exact length.
func array[T int | float64](d *decoder, dst *[]T, scratch *[]T, conv func(*decoder) (T, error)) error {
	switch d.next() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.errorf("an array or null")
	}
	if err := d.push(); err != nil {
		return err
	}
	if d.next() == ']' {
		d.pop()
		*dst = []T{}
		return nil
	}
	// Elements below kept hold earlier values; past it memory is fresh.
	s, kept := (*dst)[:cap(*dst)], cap(*dst)
	fresh := kept == 0 && scratch != nil
	if fresh {
		s = (*scratch)[:cap(*scratch)]
	}
	for n := 0; ; n++ {
		if n == len(s) {
			s = append(s, 0)
			s = s[:cap(s)]
		}
		switch c := d.next(); {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			if n >= kept {
				s[n] = 0
			}
		case c == '-' || '0' <= c && c <= '9':
			v, err := conv(d)
			if err != nil {
				return err
			}
			s[n] = v
		default:
			return d.errorf("a number or null")
		}
		switch d.next() {
		case ',':
			d.i++
		case ']':
			d.pop()
			if fresh {
				*scratch = s[:0]
				*dst = slices.Clone(s[:n+1])
			} else {
				*dst = s[:n+1]
			}
			return nil
		default:
			return d.errorf("',' or ']' after an array element")
		}
	}
}

// maxExact is the most digits an integer token may have to convert
// through int64: every such integer is below 2^53, so float64 holds it
// exactly and strconv.ParseFloat would return the same bits.
const maxExact = 15

// scanNumber scans the number at d.i and returns its token. When the token
// is an integer of at most maxExact digits, exact is true and mag is its
// absolute value.
func (d *decoder) scanNumber() (tok []byte, mag int64, exact bool, err error) {
	b, i := d.b, d.i
	if b[i] == '-' {
		i++
	}
	j := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			mag = mag*10 + int64(b[i]-'0')
		}
	default:
		d.i = i
		return nil, 0, false, d.errorf("a digit")
	}
	exact = i-j <= maxExact
	if i < len(b) && b[i] == '.' {
		exact = false
		i++
		if !hasDigits(b, &i) {
			d.i = i
			return nil, 0, false, d.errorf("a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !hasDigits(b, &i) {
			d.i = i
			return nil, 0, false, d.errorf("a digit in the exponent")
		}
	}
	tok, d.i = b[d.i:i], i
	return tok, mag, exact, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// hasDigits moves *i past the digits of b there and reports whether there
// was at least one.
func hasDigits(b []byte, i *int) bool {
	j := *i
	for *i < len(b) && isDigit(b[*i]) {
		*i++
	}
	return *i > j
}

// floatNum converts the number at d.i as strconv.ParseFloat does; a number
// out of float64 range is an error.
func (d *decoder) floatNum() (float64, error) {
	tok, mag, exact, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if exact {
		v := float64(mag)
		if tok[0] == '-' {
			v = -v // -0 stays negative zero
		}
		return v, nil
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("serve: number %s: want a float64", tok)
	}
	return v, nil
}

// int64Num converts the number at d.i as strconv.ParseInt does; a fraction,
// an exponent or a value out of int64 range is an error.
func (d *decoder) int64Num() (int64, error) {
	tok, mag, exact, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	if exact {
		if tok[0] == '-' {
			return -mag, nil
		}
		return mag, nil
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("serve: number %s: want an int64", tok)
	}
	return v, nil
}

// intNum is int64Num for an int field.
func (d *decoder) intNum() (int, error) {
	v, err := d.int64Num()
	if err == nil && int64(int(v)) != v {
		return 0, fmt.Errorf("serve: number %d: want an int", v)
	}
	return int(v), err
}

// spec records the value at d.i, any JSON value, as an occurrence of field.
func (d *decoder) spec(field int) error {
	d.next()
	start := d.i
	if err := d.skip(); err != nil {
		return err
	}
	d.specs = append(d.specs, rawSpec{field: field, raw: d.b[start:d.i]})
	return nil
}

// skip validates the value at d.i and moves past it.
func (d *decoder) skip() error {
	base := len(d.open)
	for {
		// A value; an array or object opens and goes on to its first
		// element or member, or closes at once.
		switch c := d.next(); {
		case c == '[' || c == '{':
			if err := d.push(); err != nil {
				return err
			}
			closer := c + 2 // ']' and '}' follow '[' and '{' two bytes on
			if d.next() == closer {
				d.pop()
				break
			}
			d.open = append(d.open, closer)
			if c == '{' {
				if _, _, err := d.name(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if _, _, _, err := d.scanNumber(); err != nil {
				return err
			}
		default:
			return d.errorf("a JSON value")
		}
		// After a value: close containers until one goes on with ','.
		for {
			if len(d.open) == base {
				return nil
			}
			closer := d.open[len(d.open)-1]
			c := d.next()
			if c == closer {
				d.pop()
				d.open = d.open[:len(d.open)-1]
				continue
			}
			if c != ',' {
				return d.errorf(fmt.Sprintf("',' or '%c'", closer))
			}
			d.i++
			if closer == '}' {
				if _, _, err := d.name(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// maxAliasBytes caps the spelling one alias entry may hold, so the alias
// pins at most PlanCacheSize × 1 MiB. Longer specs skip the alias and are
// decoded on every request. The static-mem line-1024 and grid-64 specs are
// about 9 KB and 15 KB.
const maxAliasBytes = 1 << 20

// planRef is a canonical plan key and its printable hash.
type planRef struct{ key, hash string }

// aliasEntry is what the plan alias stores under a spelling's hash: the
// spelling itself, compared in full on every lookup, and its plan.
type aliasEntry struct {
	spelling string
	planRef
}

// specRef is a request's resolved plan. When the plan alias should learn
// the request's spelling once the plan has built, spelling holds it and sum
// its hash; spelling is "" after an alias hit or for spellings over
// maxAliasBytes.
type specRef struct {
	planRef
	sum      uint64
	spelling string
}

// aliasSeed keys the spelling hashes of the plan alias.
var aliasSeed = maphash.MakeSeed()

// spelling calls piece on each piece of the request's spec spelling, in
// order: every occurrence of policy, then of workload, then of options,
// each followed by a NUL, the three fields separated by 0x01. Valid JSON
// holds neither byte, so spellings that differ as byte strings differ in
// their occurrences.
func spelling(specs []rawSpec, piece func([]byte)) {
	for f := range specOptions + 1 {
		if f > 0 {
			piece(fieldSep)
		}
		for _, sp := range specs {
			if sp.field == f {
				piece(sp.raw)
				piece(occurrenceEnd)
			}
		}
	}
}

var occurrenceEnd, fieldSep = []byte{0}, []byte{1}

// resolve maps the request's spec spelling to the canonical plan key
// through the plan alias, an LRU keyed on the spelling's hash whose entries
// are compared with the spelling in full. Only a miss decodes the specs and
// runs planKey. A miss does not fill the alias: planFor does, once the plan
// has built, so a malformed, refused or unbuildable request leaves nothing
// behind.
func (s *Server) resolve(specs []rawSpec) (specRef, error) {
	var h maphash.Hash
	h.SetSeed(aliasSeed)
	size := 0
	spelling(specs, func(p []byte) {
		h.Write(p)
		size += len(p)
	})
	sum := h.Sum64()
	if size <= maxAliasBytes {
		if e, ok := s.aliases.get(sum); ok && spells(e.spelling, specs) {
			s.aliases.hits.Add(1)
			return specRef{planRef: e.planRef}, nil
		}
	}
	s.aliases.misses.Add(1)
	var spec planKeySpec
	dst := [...]any{specPolicy: &spec.Policy, specWorkload: &spec.Workload, specOptions: &spec.Options}
	for _, sp := range specs {
		if err := json.Unmarshal(sp.raw, dst[sp.field]); err != nil {
			return specRef{}, err
		}
	}
	key, hash, err := planKey(spec.Policy, spec.Workload, spec.Options)
	if err != nil {
		return specRef{}, err
	}
	ref := specRef{planRef: planRef{key: key, hash: hash}, sum: sum}
	if size <= maxAliasBytes {
		var b strings.Builder
		b.Grow(size)
		spelling(specs, func(p []byte) { b.Write(p) })
		ref.spelling = b.String()
	}
	return ref, nil
}

// spells reports whether stored is the spelling of specs.
func spells(stored string, specs []rawSpec) bool {
	ok := true
	spelling(specs, func(p []byte) {
		if ok && len(stored) >= len(p) && stored[:len(p)] == string(p) {
			stored = stored[len(p):]
		} else {
			ok = false
		}
	})
	return ok && stored == ""
}

// planFor returns an admitted request's compiled plan (see plan) and, once
// it exists, records the request's spelling in the plan alias.
func (s *Server) planFor(ref specRef) (*planEntry, error) {
	entry, err := s.plan(ref.key)
	if err == nil && ref.spelling != "" {
		s.aliases.put(ref.sum, aliasEntry{spelling: ref.spelling, planRef: ref.planRef})
	}
	return entry, err
}
