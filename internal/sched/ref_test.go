package sched

import "encoding/json"

// refMarshal is the reflection encoder the schedule document was defined
// by, kept as the oracle MarshalJSON is tested against.
func refMarshal(s *Schedule) ([]byte, error) {
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
