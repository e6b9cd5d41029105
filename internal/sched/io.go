package sched

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"ftsched/internal/graph"
	"ftsched/internal/wire"
)

// jsonSchedule is the serialized form of a Schedule, as UnmarshalJSON
// reads it. MarshalJSON writes the same document without reflection.
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

// MarshalJSON encodes the schedule with deterministic ordering: op slots
// by processor then start date, comm slots by link then start date. The
// bytes are those json.Marshal writes for jsonSchedule (DESIGN.md §17),
// built in one buffer sized up front. A non-finite date is an error.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	procs, links := s.Procs(), s.Links()
	// Size the buffer exactly, so a cached document carries no slack.
	const (
		opFixed   = len(`{"op":,"proc":,"replica":,"start":,"end":}`)
		commFixed = len(`{"src":,"dst":,"link":,"from":,"srcProc":,"transferId":,"hop":,"start":,"end":}`)
	)
	size := len(`{"mode":,"k":,"ops":,"comms":}`) + wire.StringLen(s.Mode.String()) + intLen(s.K)
	n := 0
	for _, p := range procs {
		for _, sl := range s.ProcSlots(p) {
			n++
			size += opFixed + wire.StringLen(sl.Op) + wire.StringLen(sl.Proc) + intLen(sl.Replica) +
				wire.FloatLen(sl.Start) + wire.FloatLen(sl.End)
		}
	}
	size += wire.ListLen(n)
	n = 0
	for _, l := range links {
		for _, c := range s.LinkSlots(l) {
			n++
			size += commFixed + wire.StringLen(c.Edge.Src) + wire.StringLen(c.Edge.Dst) + wire.StringLen(c.Link) +
				wire.StringLen(c.From) + wire.StringLen(c.SrcProc) + intLen(c.TransferID) + intLen(c.Hop) +
				wire.FloatLen(c.Start) + wire.FloatLen(c.End)
			if c.To != "" {
				size += len(`,"to":`) + wire.StringLen(c.To)
			}
			if c.DstProc != "" {
				size += len(`,"dstProc":`) + wire.StringLen(c.DstProc)
			}
			if c.SenderRank != 0 {
				size += len(`,"senderRank":`) + intLen(c.SenderRank)
			}
			if c.Passive {
				size += len(`,"passive":true`)
			}
			if c.Timeout != 0 {
				size += len(`,"timeout":`) + wire.FloatLen(c.Timeout)
			}
			if c.Broadcast {
				size += len(`,"broadcast":true`)
			}
		}
	}
	size += wire.ListLen(n)

	var bad float64 // a non-finite date, reported after the walk
	date := func(b []byte, key string, f float64) []byte {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			bad = f
			f = 0
		}
		return wire.AppendFloat(append(b, key...), f)
	}
	b := make([]byte, 0, size)
	b = append(b, `{"mode":`...)
	b = wire.AppendString(b, s.Mode.String())
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(s.K), 10)
	b = append(b, `,"ops":`...)
	list := len(b)
	for _, p := range procs {
		for _, sl := range s.ProcSlots(p) {
			b = wire.AppendSep(b, list)
			b = append(b, `{"op":`...)
			b = wire.AppendString(b, sl.Op)
			b = append(b, `,"proc":`...)
			b = wire.AppendString(b, sl.Proc)
			b = append(b, `,"replica":`...)
			b = strconv.AppendInt(b, int64(sl.Replica), 10)
			b = date(b, `,"start":`, sl.Start)
			b = date(b, `,"end":`, sl.End)
			b = append(b, '}')
		}
	}
	b = wire.EndList(b, list)
	b = append(b, `,"comms":`...)
	list = len(b)
	for _, l := range links {
		for _, c := range s.LinkSlots(l) {
			b = wire.AppendSep(b, list)
			b = append(b, `{"src":`...)
			b = wire.AppendString(b, c.Edge.Src)
			b = append(b, `,"dst":`...)
			b = wire.AppendString(b, c.Edge.Dst)
			b = append(b, `,"link":`...)
			b = wire.AppendString(b, c.Link)
			b = append(b, `,"from":`...)
			b = wire.AppendString(b, c.From)
			if c.To != "" {
				b = append(b, `,"to":`...)
				b = wire.AppendString(b, c.To)
			}
			b = append(b, `,"srcProc":`...)
			b = wire.AppendString(b, c.SrcProc)
			if c.DstProc != "" {
				b = append(b, `,"dstProc":`...)
				b = wire.AppendString(b, c.DstProc)
			}
			if c.SenderRank != 0 {
				b = append(b, `,"senderRank":`...)
				b = strconv.AppendInt(b, int64(c.SenderRank), 10)
			}
			b = append(b, `,"transferId":`...)
			b = strconv.AppendInt(b, int64(c.TransferID), 10)
			b = append(b, `,"hop":`...)
			b = strconv.AppendInt(b, int64(c.Hop), 10)
			b = date(b, `,"start":`, c.Start)
			b = date(b, `,"end":`, c.End)
			if c.Passive {
				b = append(b, `,"passive":true`...)
			}
			if c.Timeout != 0 {
				b = date(b, `,"timeout":`, c.Timeout)
			}
			if c.Broadcast {
				b = append(b, `,"broadcast":true`...)
			}
			b = append(b, '}')
		}
	}
	b = wire.EndList(b, list)
	if bad != 0 {
		return nil, fmt.Errorf("sched: encode: unsupported date %v", bad)
	}
	return append(b, '}'), nil
}

// intLen returns the length of n in decimal.
func intLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for n >= 10 || n <= -10 {
		n /= 10
		l++
	}
	return l
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
