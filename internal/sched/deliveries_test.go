package sched_test

import (
	"math"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/paperex"
	"ftsched/internal/sched"
)

func TestDeliveriesFT1BusChains(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT1: %v", err)
	}
	s := res.Schedule
	ds := s.Deliveries()
	if len(ds) == 0 {
		t.Fatalf("no deliveries in FT1 bus schedule")
	}
	nTransfers := len(s.Transfers())
	nSenders := 0
	for _, d := range ds {
		if !d.Chain {
			t.Errorf("FT1 delivery of %v is not a failover chain", d.Edge)
		}
		for i, sd := range d.Senders {
			nSenders++
			if i > 0 && sd.Rank < d.Senders[i-1].Rank {
				t.Errorf("delivery of %v: senders out of rank order", d.Edge)
			}
			if math.IsInf(sd.Deadline, 1) {
				t.Errorf("delivery of %v: FT1 sender rank %d has no deadline", d.Edge, sd.Rank)
			}
			last := sd.Hops[len(sd.Hops)-1]
			if sd.Deadline != last.End {
				t.Errorf("delivery of %v rank %d: deadline %g != static last-hop end %g",
					d.Edge, sd.Rank, sd.Deadline, last.End)
			}
			if sd.Proc != sd.Hops[0].SrcProc {
				t.Errorf("delivery of %v rank %d: sender proc %s != hop-0 source %s",
					d.Edge, sd.Rank, sd.Proc, sd.Hops[0].SrcProc)
			}
		}
		if d.Broadcast {
			rcv := d.Receivers(in.Arch)
			if len(rcv) != 3 {
				t.Errorf("broadcast delivery of %v reaches %v, want all 3 bus processors", d.Edge, rcv)
			}
		} else if d.Dst == "" {
			t.Errorf("point-to-point delivery of %v has no destination", d.Edge)
		}
	}
	if nSenders != nTransfers {
		t.Errorf("deliveries hold %d senders, schedule has %d transfers", nSenders, nTransfers)
	}
}

func TestDeliveriesFT2TriangleIndependentSenders(t *testing.T) {
	in := paperex.TriangleInstance()
	res, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT2: %v", err)
	}
	for _, d := range res.Schedule.Deliveries() {
		if d.Chain {
			t.Errorf("FT2 delivery of %v marked as failover chain", d.Edge)
		}
		for _, sd := range d.Senders {
			if sd.Passive {
				t.Errorf("FT2 delivery of %v has a passive sender (rank %d)", d.Edge, sd.Rank)
			}
			if !math.IsInf(sd.Deadline, 1) {
				t.Errorf("FT2 delivery of %v rank %d carries a deadline %g, want +Inf",
					d.Edge, sd.Rank, sd.Deadline)
			}
			if sd.Duration() <= 0 {
				t.Errorf("FT2 delivery of %v rank %d: non-positive duration %g", d.Edge, sd.Rank, sd.Duration())
			}
		}
	}
}

func TestDeliveriesMultiHopForwarders(t *testing.T) {
	in := paperex.TriangleInstance()
	res, err := core.ScheduleFT2(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT2: %v", err)
	}
	for _, d := range res.Schedule.Deliveries() {
		for _, sd := range d.Senders {
			fw := sd.ForwardProcs()
			if len(fw) != len(sd.Hops)-1 {
				t.Errorf("delivery of %v rank %d: %d forwarders for %d hops",
					d.Edge, sd.Rank, len(fw), len(sd.Hops))
			}
			for i, f := range fw {
				if f != sd.Hops[i+1].From {
					t.Errorf("delivery of %v rank %d: forwarder %d is %s, want hop %d origin %s",
						d.Edge, sd.Rank, i, f, i+1, sd.Hops[i+1].From)
				}
			}
		}
	}
}

func TestCompileQueueHoldsActiveHopsInStartOrder(t *testing.T) {
	in := paperex.BusInstance()
	res, err := core.ScheduleFT1(in.Graph, in.Arch, in.Spec, in.K, core.Options{})
	if err != nil {
		t.Fatalf("ScheduleFT1: %v", err)
	}
	s := res.Schedule
	c, err := sched.Compile(s, in.Graph, in.Arch, in.Spec)
	if err != nil {
		t.Fatal(err)
	}
	active, passive := 0, 0
	for _, l := range s.Links() {
		for _, cs := range s.LinkSlots(l) {
			if cs.Passive {
				passive++
			} else {
				active++
			}
		}
	}
	if passive == 0 {
		t.Fatal("FT1 bus schedule has no passive transfers; the test needs both kinds")
	}
	if len(c.Queue) != active {
		t.Errorf("queues hold %d entries, schedule has %d active hops", len(c.Queue), active)
	}
	for lid, name := range c.LinkNames {
		var prev float64
		for i, q := range c.Queue[c.QueueStart[lid]:c.QueueStart[lid+1]] {
			sd := c.Senders[q.Sender]
			if sd.Passive {
				t.Errorf("link %s queue entry %d belongs to a passive sender", name, i)
			}
			h := c.Hops[sd.HopLo+q.Hop]
			if h.Link != int32(lid) {
				t.Errorf("link %s queue entry %d is a hop over link %s", name, i, c.LinkNames[h.Link])
			}
			start := s.Deliveries()[sd.Delivery].Senders[sd.Rank].Hops[q.Hop].Start
			if i > 0 && start < prev-1e-9 {
				t.Errorf("link %s queue entry %d starts at %g, before its predecessor at %g", name, i, start, prev)
			}
			prev = start
		}
	}
}
