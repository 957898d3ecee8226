package serve

// This file is the request path's decode stage. encoding/json still decodes
// the envelope of every /v1/answer and /v1/update body, so syntax checks,
// key matching (exact, then case-insensitive) and unknown-key skipping stay
// its own. Two field types take over the costly parts:
//
//   - rawSpec keeps the policy, workload and options specs as raw bytes.
//     The plan alias maps those exact bytes to the canonical plan key, so a
//     repeated spec is neither decoded nor re-canonicalised.
//   - floats scans x, base and delta.values by hand instead of through
//     encoding/json's per-element reflection.
//
// The canonical key (planKey) stays the identity everywhere: the plan
// cache, plan_key on the wire, streamKey and the WAL. An alias entry holds
// only that key and its hash, never a plan, and is added only once its plan
// has built.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// maxBodyBytes caps a request body. The largest legitimate body, a
// 1024×1024 grid database in x, is about 24 MB.
const maxBodyBytes = 64 << 20

// wireHead is the part of a request body the preamble reads. The wire
// structs embed it, so its fields decode at the top level of the body.
type wireHead struct {
	Tenant    string  `json:"tenant"`
	Policy    rawSpec `json:"policy"`
	Workload  rawSpec `json:"workload"`
	Options   rawSpec `json:"options"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// answerWire is AnswerRequest as the request path decodes it.
type answerWire struct {
	wireHead
	Epsilon float64 `json:"epsilon"`
	X       floats  `json:"x,omitempty"`
	Stream  bool    `json:"stream,omitempty"`
}

// updateWire is UpdateRequest as the request path decodes it.
type updateWire struct {
	wireHead
	Base  floats    `json:"base,omitempty"`
	Delta deltaWire `json:"delta"`
}

// deltaWire is DeltaSpec as the request path decodes it.
type deltaWire struct {
	Cells  []int  `json:"cells"`
	Values floats `json:"values"`
}

// rawSpec holds every occurrence of one spec field as raw JSON, each
// followed by a NUL byte. Valid JSON never contains a NUL (nor the 0x01
// that separates the fields of an alias key), so the occurrences split
// back apart unambiguously. A repeated key is kept, not overwritten:
// encoding/json decodes a repeated struct field into the same struct, and
// decode replays the occurrences in order to merge them the same way.
type rawSpec []byte

// UnmarshalJSON implements json.Unmarshaler. b is one complete JSON value,
// null included.
func (r *rawSpec) UnmarshalJSON(b []byte) error {
	*r = append(append(*r, b...), 0)
	return nil
}

// decode unmarshals each occurrence in order into v.
func (r rawSpec) decode(v any) error {
	for len(r) > 0 {
		i := bytes.IndexByte(r, 0)
		if err := json.Unmarshal(r[:i], v); err != nil {
			return err
		}
		r = r[i+1:]
	}
	return nil
}

// maxAliasBytes caps the spec bytes one alias entry may hold, so the
// alias pins at most PlanCacheSize × 1 MiB. Longer specs skip the alias and
// are decoded on every request. The static-mem line-1024 and grid-64 specs
// are about 9 KB and 15 KB.
const maxAliasBytes = 1 << 20

// planRef is what the plan alias stores: the canonical plan key and its
// printable hash.
type planRef struct{ key, hash string }

// specRef is a request's resolved plan. alias holds the request's spec
// bytes when the plan alias should learn them once the plan has built, and
// is "" after an alias hit or for specs over maxAliasBytes.
type specRef struct {
	planRef
	alias string
}

// wireBody is an endpoint's wire struct: a pointer encoding/json decodes
// into, whose embedded head the preamble reads.
type wireBody interface{ wire() *wireHead }

func (h *wireHead) wire() *wireHead { return h }

// decode reads the request body, capped at s.maxBody, into req and
// resolves its plan key. A body over the cap fails with
// *http.MaxBytesError.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, req wireBody) (specRef, error) {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(req); err != nil {
		return specRef{}, err
	}
	return s.resolve(req.wire())
}

// resolve maps the request's raw spec bytes to the canonical plan key
// through the plan alias, an LRU keyed on the full bytes (never on a hash
// of them). Only a miss decodes the specs and runs planKey. A miss does not
// fill the alias: planFor does, once the plan has built, so a malformed,
// refused or unbuildable request leaves nothing behind.
func (s *Server) resolve(h *wireHead) (specRef, error) {
	alias := string(h.Policy) + "\x01" + string(h.Workload) + "\x01" + string(h.Options)
	if ref, ok := s.aliases.get(alias); ok {
		return specRef{planRef: ref}, nil
	}
	s.aliases.misses.Add(1)
	var spec planKeySpec
	for _, f := range []struct {
		raw rawSpec
		v   any
	}{{h.Policy, &spec.Policy}, {h.Workload, &spec.Workload}, {h.Options, &spec.Options}} {
		if err := f.raw.decode(f.v); err != nil {
			return specRef{}, err
		}
	}
	key, hash, err := planKey(spec.Policy, spec.Workload, spec.Options)
	if err != nil {
		return specRef{}, err
	}
	if len(alias) > maxAliasBytes {
		alias = ""
	}
	return specRef{planRef: planRef{key: key, hash: hash}, alias: alias}, nil
}

// planFor returns an admitted request's compiled plan (see plan) and, once
// it exists, records the request's spec bytes in the plan alias.
func (s *Server) planFor(ref specRef) (*planEntry, error) {
	entry, err := s.plan(ref.key)
	if err == nil && ref.alias != "" {
		s.aliases.put(ref.alias, ref.planRef)
	}
	return entry, err
}

// floats is a []float64 field decoded by a hand-written scanner. It keeps
// what encoding/json does for a []float64:
//
//   - null sets nil, even after an earlier occurrence of the key;
//   - [] is empty and non-nil;
//   - a repeated key decodes into the earlier slice's backing array, and a
//     null element leaves the value already there (0 in fresh memory);
//   - an element that is not a number or null, or a number out of float64
//     range, is an error.
//
// Numbers parse with strconv.ParseFloat, as in encoding/json, so values are
// bitwise the same.
type floats []float64

// errNotFloats rejects a float-list field that encoding/json would not
// decode into a []float64.
var errNotFloats = errors.New("serve: want an array of numbers within float64 range, or null")

// UnmarshalJSON implements json.Unmarshaler. encoding/json has already
// validated b as one JSON value, so the scanner checks only its shape.
func (f *floats) UnmarshalJSON(b []byte) error {
	i := skipSpace(b, 0)
	switch b[i] {
	case 'n':
		*f = nil
		return nil
	case '[':
	default:
		return errNotFloats
	}
	if i = skipSpace(b, i+1); b[i] == ']' {
		*f = floats{}
		return nil
	}
	s := (*f)[:cap(*f)]
	n := 0
	for {
		if n == len(s) {
			s = append(s, 0)
		}
		switch c := b[i]; {
		case c == 'n':
			i += len("null")
		case c == '-' || '0' <= c && c <= '9':
			j := i + 1
			for j < len(b) && isNumberByte(b[j]) {
				j++
			}
			v, err := strconv.ParseFloat(string(b[i:j]), 64)
			if err != nil {
				return errNotFloats
			}
			s[n], i = v, j
		default:
			return errNotFloats
		}
		n++
		if i = skipSpace(b, i); b[i] == ']' {
			*f = s[:n]
			return nil
		}
		i = skipSpace(b, i+1) // past the ','
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}
