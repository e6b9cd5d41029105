package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"

	"ftsched/internal/wire"
)

// canonicalExtra is a kind-specific canonical tail: the value of the
// "extra" member.
type canonicalExtra interface {
	appendCanonical(b []byte) []byte
}

// certifyExtra is the certify-specific canonical tail. The json tags of the
// tails give the reference spelling their appendCanonical must match.
type certifyExtra struct {
	CertifyK int `json:"certify_k"`
}

func (x certifyExtra) appendCanonical(b []byte) []byte {
	b = append(b, `{"certify_k":`...)
	b = strconv.AppendInt(b, int64(x.CertifyK), 10)
	return append(b, '}')
}

// simulateExtra is the simulate-specific canonical tail.
type simulateExtra struct {
	Scenario    []FailureSpec `json:"scenario"`
	Iterations  int           `json:"iterations"`
	SimDeadline float64       `json:"sim_deadline"`
	Trace       bool          `json:"trace"`
}

func (x simulateExtra) appendCanonical(b []byte) []byte {
	b = append(b, `{"scenario":`...)
	if x.Scenario == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i, f := range x.Scenario {
			if i > 0 {
				b = append(b, ',')
			}
			b = f.appendCanonical(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(x.Iterations), 10)
	b = append(b, `,"sim_deadline":`...)
	b = wire.AppendFloat(b, x.SimDeadline)
	b = append(b, `,"trace":`...)
	b = strconv.AppendBool(b, x.Trace)
	return append(b, '}')
}

// appendCanonical appends f as encoding/json encodes a FailureSpec: zero
// fields other than proc are omitted.
func (f FailureSpec) appendCanonical(b []byte) []byte {
	b = append(b, `{"proc":`...)
	b = wire.AppendString(b, f.Proc)
	if f.Iteration != 0 {
		b = append(b, `,"iteration":`...)
		b = strconv.AppendInt(b, int64(f.Iteration), 10)
	}
	if f.At != 0 {
		b = append(b, `,"at":`...)
		b = wire.AppendFloat(b, f.At)
	}
	if f.RecoverIteration != 0 {
		b = append(b, `,"recover_iteration":`...)
		b = strconv.AppendInt(b, int64(f.RecoverIteration), 10)
	}
	if f.RecoverAt != 0 {
		b = append(b, `,"recover_at":`...)
		b = wire.AppendFloat(b, f.RecoverAt)
	}
	return append(b, '}')
}

// canonicalHash returns the sha256 of the canonical form of (kind,
// request, problem, extra) as lowercase hex. The canonical form is the
// compact JSON document
//
//	{"v":1,"kind":…,"heuristic":…,"k":…,"seeds":…,"degraded":…,
//	 "nobcast":…,"nopress":…,"deadline":…,"graph":…,"arch":…,"spec":…,
//	 "extra":…}
//
// spelled exactly as encoding/json spells it ("extra" is absent when extra
// is nil; "v" is the canonical-form version, bump it on any layout
// change). Its graph, arch, and spec members are the model types' own
// deterministic encodings (insertion order where order is semantic, sorted
// where it is not), so two requests that differ only in JSON key order,
// whitespace, number spelling, or defaulted-vs-explicit zero fields
// canonicalize to the same bytes, while any semantic difference —
// including operation declaration order, which the schedulers'
// tie-breaking is sensitive to — changes them. Resource knobs (Workers,
// TimeoutMS) are deliberately absent: the engines are bit-identical across
// them, so requests differing only there share one cache entry.
//
// The problem must be the decoded form of the request's graph/arch/spec
// members; its canonical documents are shared by every key built for the
// request. Every float of a decoded request is finite, as wire.AppendFloat
// requires: JSON has no spelling for a NaN or an infinity. The form is
// streamed into the hash and never assembled: the scalar members go
// through one small buffer, the three documents are written as they are.
func canonicalHash(kind string, r *ScheduleRequest, p *problem, extra canonicalExtra) string {
	var buf [256]byte
	b := append(buf[:0], `{"v":1,"kind":`...)
	b = wire.AppendString(b, kind)
	b = append(b, `,"heuristic":`...)
	b = wire.AppendString(b, r.Heuristic)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"seeds":`...)
	b = strconv.AppendInt(b, int64(r.Seeds), 10)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, r.AllowDegraded)
	b = append(b, `,"nobcast":`...)
	b = strconv.AppendBool(b, r.NoBroadcast)
	b = append(b, `,"nopress":`...)
	b = strconv.AppendBool(b, r.NoPressure)
	b = append(b, `,"deadline":`...)
	b = wire.AppendFloat(b, r.Deadline)
	h := sha256.New()
	for _, member := range [...]struct {
		name string
		doc  []byte
	}{{`,"graph":`, p.graphJSON}, {`,"arch":`, p.archJSON}, {`,"spec":`, p.specJSON}} {
		b = append(b, member.name...)
		h.Write(b)
		h.Write(member.doc)
		b = b[:0]
	}
	if extra != nil {
		b = append(b, `,"extra":`...)
		b = extra.appendCanonical(b)
	}
	h.Write(append(b, '}'))
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], h.Sum(b[:0]))
	return string(hexSum[:])
}

// rawKey is the raw index's key for a body sent to kind's endpoint:
// sha256(kind ‖ 0x00 ‖ body). A response is a deterministic function of
// (endpoint, body bytes), so equal raw keys may share one outcome. The hash
// must resist collisions: with a weak one, a crafted body could be served
// another client's answer.
func rawKey(kind string, body []byte) [32]byte {
	h := sha256.New()
	io.WriteString(h, kind)
	h.Write([]byte{0})
	h.Write(body)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
