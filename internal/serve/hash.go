package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// canonicalEnvelope is the hashed canonical form of a request. Its graph,
// arch, and spec members are the model types' own deterministic encodings
// (insertion order where order is semantic, sorted where it is not), so two
// requests that differ only in JSON key order, whitespace, number spelling,
// or defaulted-vs-explicit zero fields canonicalize to the same bytes,
// while any semantic difference — including operation declaration order,
// which the schedulers' tie-breaking is sensitive to — changes them.
//
// Resource knobs (Workers, TimeoutMS) are deliberately absent: the
// engines are bit-identical across them, so requests differing only there
// share one cache entry.
type canonicalEnvelope struct {
	V         int             `json:"v"` // canonical-form version, bump on layout change
	Kind      string          `json:"kind"`
	Heuristic string          `json:"heuristic"`
	K         int             `json:"k"`
	Seeds     int             `json:"seeds"`
	Degraded  bool            `json:"degraded"`
	NoBcast   bool            `json:"nobcast"`
	NoPress   bool            `json:"nopress"`
	Deadline  float64         `json:"deadline"`
	Graph     json.RawMessage `json:"graph"`
	Arch      json.RawMessage `json:"arch"`
	Spec      json.RawMessage `json:"spec"`
	Extra     json.RawMessage `json:"extra,omitempty"` // kind-specific tail
}

// certifyExtra is the certify-specific canonical tail.
type certifyExtra struct {
	CertifyK int `json:"certify_k"`
}

// simulateExtra is the simulate-specific canonical tail.
type simulateExtra struct {
	Scenario    []FailureSpec `json:"scenario"`
	Iterations  int           `json:"iterations"`
	SimDeadline float64       `json:"sim_deadline"`
	Trace       bool          `json:"trace"`
}

// canonicalHash builds the canonical bytes of (kind, request, problem) and
// returns their sha256 as lowercase hex. The problem must be the decoded
// form of the request's graph/arch/spec members; its canonical documents
// are shared by every key built for the request.
func canonicalHash(kind string, r *ScheduleRequest, p *problem, extra any) (string, error) {
	env := canonicalEnvelope{
		V:         1,
		Kind:      kind,
		Heuristic: r.Heuristic,
		K:         r.K,
		Seeds:     r.Seeds,
		Degraded:  r.AllowDegraded,
		NoBcast:   r.NoBroadcast,
		NoPress:   r.NoPressure,
		Deadline:  r.Deadline,
		Graph:     p.graphJSON,
		Arch:      p.archJSON,
		Spec:      p.specJSON,
	}
	if extra != nil {
		var err error
		if env.Extra, err = json.Marshal(extra); err != nil {
			return "", fmt.Errorf("canonicalize extra: %w", err)
		}
	}
	data, err := json.Marshal(env)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
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
