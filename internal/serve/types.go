// Package serve is the scheduling-as-a-service layer: an HTTP/JSON server
// exposing the deterministic scheduling, certification, and simulation
// engines behind an admission path built for repeated traffic — a canonical
// content-hash of every request fronting an LRU response cache with
// single-flight deduplication, a bounded global worker budget, cooperative
// per-request cancellation, and Prometheus metrics re-exporting the
// internal/obs counters.
//
// The determinism contract extends from the engines to the wire: for
// identical inputs the response body is byte-identical to the ftsched CLI's
// -format json output (via ?format=cli), at any server concurrency, and on
// cache hit and miss alike.
package serve

import (
	"encoding/json"
	"fmt"

	"ftsched/internal/arch"
	"ftsched/internal/core"
	"ftsched/internal/graph"
	"ftsched/internal/sim"
	"ftsched/internal/spec"
)

// ScheduleRequest is the body of POST /v1/schedule: the scheduling problem
// plus engine options. Graph, arch, and spec use the same JSON documents the
// CLI's -graph/-arch/-spec flags load.
type ScheduleRequest struct {
	Graph json.RawMessage `json:"graph"`
	Arch  json.RawMessage `json:"arch"`
	Spec  json.RawMessage `json:"spec"`
	// Heuristic is basic, ft1, or ft2.
	Heuristic string `json:"heuristic"`
	// K is the number of fail-stop processor failures to tolerate.
	K int `json:"k"`
	// Seeds adds randomized tie-breaking runs; the best schedule wins
	// (deterministic for a fixed value, like the CLI's -seeds).
	Seeds int `json:"seeds,omitempty"`
	// AllowDegraded, NoBroadcast, NoPressure, and Deadline mirror the
	// engine options of the same names.
	AllowDegraded bool    `json:"allow_degraded,omitempty"`
	NoBroadcast   bool    `json:"no_broadcast,omitempty"`
	NoPressure    bool    `json:"no_pressure,omitempty"`
	Deadline      float64 `json:"deadline,omitempty"`
	// Workers is the per-request evaluation-pool budget. It is clamped to
	// the server's global budget and excluded from the content hash: the
	// engines produce bit-identical results at any worker count, so worker
	// budgets only trade latency for resources.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds this request's wall-clock time (queue wait
	// included); it is clamped to the server's default timeout and excluded
	// from the content hash.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CertifyRequest is the body of POST /v1/certify: schedule the problem,
// then statically certify the result.
type CertifyRequest struct {
	ScheduleRequest
	// CertifyK is the tolerance level to certify against; defaults to K.
	CertifyK *int `json:"certify_k,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate: schedule the problem,
// then execute the schedule's distributed executive under a failure
// scenario.
type SimulateRequest struct {
	ScheduleRequest
	// Scenario lists the fail-stop failures to inject.
	Scenario []FailureSpec `json:"scenario,omitempty"`
	// Iterations is the number of reactive-loop iterations (default 1).
	Iterations int `json:"iterations,omitempty"`
	// SimDeadline is the per-iteration real-time constraint to check.
	SimDeadline float64 `json:"sim_deadline,omitempty"`
	// Trace records the executed activities of each iteration.
	Trace bool `json:"trace,omitempty"`
}

// FailureSpec is one injected processor failure (sim.Failure on the wire).
type FailureSpec struct {
	Proc             string  `json:"proc"`
	Iteration        int     `json:"iteration,omitempty"`
	At               float64 `json:"at,omitempty"`
	RecoverIteration int     `json:"recover_iteration,omitempty"`
	RecoverAt        float64 `json:"recover_at,omitempty"`
}

// BatchRequest is the body of the /batch endpoints: the element requests
// are processed concurrently under the server's global worker budget, and
// the responses come back in request order.
type BatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchItem is one element of a batch response: the HTTP status the request
// would have received standalone, plus its response body.
type BatchItem struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the body of a /batch response.
type BatchResponse struct {
	Responses []BatchItem `json:"responses"`
}

// problem is a decoded, validated scheduling problem, with the canonical
// graph, arch, and spec documents its content hashes are built from (see
// canonicalHash), rendered once per request.
type problem struct {
	g  *graph.Graph
	a  *arch.Architecture
	sp *spec.Spec
	h  core.Heuristic

	graphJSON, archJSON, specJSON json.RawMessage
}

// decodeProblem validates and decodes the request's problem half, then
// renders its canonical documents.
func (r *ScheduleRequest) decodeProblem() (*problem, error) {
	h, err := core.ParseHeuristic(r.Heuristic)
	if err != nil {
		return nil, err
	}
	if r.K < 0 {
		return nil, fmt.Errorf("negative k (%d)", r.K)
	}
	if r.Seeds < 0 {
		return nil, fmt.Errorf("negative seeds (%d)", r.Seeds)
	}
	if len(r.Graph) == 0 || len(r.Arch) == 0 || len(r.Spec) == 0 {
		return nil, fmt.Errorf("graph, arch, and spec are all required")
	}
	p := &problem{g: new(graph.Graph), a: new(arch.Architecture), sp: spec.New(), h: h}
	if err := p.g.UnmarshalJSON(r.Graph); err != nil {
		return nil, err
	}
	if err := p.a.UnmarshalJSON(r.Arch); err != nil {
		return nil, err
	}
	if err := p.sp.UnmarshalJSON(r.Spec); err != nil {
		return nil, err
	}
	if p.graphJSON, err = p.g.MarshalJSON(); err != nil {
		return nil, fmt.Errorf("canonicalize graph: %w", err)
	}
	if p.archJSON, err = p.a.MarshalJSON(); err != nil {
		return nil, fmt.Errorf("canonicalize arch: %w", err)
	}
	if p.specJSON, err = p.sp.MarshalJSON(); err != nil {
		return nil, fmt.Errorf("canonicalize spec: %w", err)
	}
	return p, nil
}

// scenario converts the wire failure list into the simulator's model.
func (r *SimulateRequest) scenario() sim.Scenario {
	var sc sim.Scenario
	for _, f := range r.Scenario {
		sc.Failures = append(sc.Failures, sim.Failure{
			Proc:             f.Proc,
			Iteration:        f.Iteration,
			At:               f.At,
			RecoverIteration: f.RecoverIteration,
			RecoverAt:        f.RecoverAt,
		})
	}
	return sc
}
