package sched

import (
	"encoding/json"
	"fmt"

	"ftsched/internal/graph"
)

// jsonSchedule is the serialized form of a Schedule.
type jsonSchedule struct {
	Mode  string         `json:"mode"`
	K     int            `json:"k"`
	Ops   []jsonOpSlot   `json:"ops"`
	Comms []jsonCommSlot `json:"comms"`
}

type jsonOpSlot struct {
	Op      string  `json:"op"`
	Proc    string  `json:"proc"`
	Replica int     `json:"replica"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
}

type jsonCommSlot struct {
	Src        string  `json:"src"`
	Dst        string  `json:"dst"`
	Link       string  `json:"link"`
	From       string  `json:"from"`
	To         string  `json:"to,omitempty"`
	SrcProc    string  `json:"srcProc"`
	DstProc    string  `json:"dstProc,omitempty"`
	SenderRank int     `json:"senderRank,omitempty"`
	TransferID int     `json:"transferId"`
	Hop        int     `json:"hop"`
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	Passive    bool    `json:"passive,omitempty"`
	Timeout    float64 `json:"timeout,omitempty"`
	Broadcast  bool    `json:"broadcast,omitempty"`
}

// MarshalJSON encodes the schedule with deterministic ordering.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	js := jsonSchedule{Mode: s.Mode.String(), K: s.K}
	for _, p := range s.Procs() {
		for _, sl := range s.ProcSlots(p) {
			js.Ops = append(js.Ops, jsonOpSlot{
				Op: sl.Op, Proc: sl.Proc, Replica: sl.Replica,
				Start: sl.Start, End: sl.End,
			})
		}
	}
	for _, l := range s.Links() {
		for _, c := range s.LinkSlots(l) {
			js.Comms = append(js.Comms, jsonCommSlot{
				Src: c.Edge.Src, Dst: c.Edge.Dst, Link: c.Link,
				From: c.From, To: c.To, SrcProc: c.SrcProc, DstProc: c.DstProc,
				SenderRank: c.SenderRank, TransferID: c.TransferID, Hop: c.Hop,
				Start: c.Start, End: c.End,
				Passive: c.Passive, Timeout: c.Timeout, Broadcast: c.Broadcast,
			})
		}
	}
	return json.Marshal(js)
}

// UnmarshalJSON decodes a schedule previously encoded by MarshalJSON.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return fmt.Errorf("sched: decode: %w", err)
	}
	var mode Mode
	switch js.Mode {
	case "basic":
		mode = ModeBasic
	case "ft1":
		mode = ModeFT1
	case "ft2":
		mode = ModeFT2
	default:
		return fmt.Errorf("sched: decode: unknown mode %q", js.Mode)
	}
	*s = Schedule{Mode: mode, K: js.K, procs: make(map[string][]*OpSlot), links: make(map[string][]*CommSlot)}
	maxTransfer := -1
	for _, o := range js.Ops {
		s.AddOpSlot(OpSlot{Op: o.Op, Proc: o.Proc, Replica: o.Replica, Start: o.Start, End: o.End})
	}
	for _, c := range js.Comms {
		s.AddCommSlot(CommSlot{
			Edge: graph.EdgeKey{Src: c.Src, Dst: c.Dst}, Link: c.Link,
			From: c.From, To: c.To, SrcProc: c.SrcProc, DstProc: c.DstProc,
			SenderRank: c.SenderRank, TransferID: c.TransferID, Hop: c.Hop,
			Start: c.Start, End: c.End,
			Passive: c.Passive, Timeout: c.Timeout, Broadcast: c.Broadcast,
		})
		if c.TransferID > maxTransfer {
			maxTransfer = c.TransferID
		}
	}
	s.nextTransfer = maxTransfer + 1
	return nil
}
