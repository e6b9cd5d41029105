package campaign_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/campaign"
	"ftsched/internal/core"
	"ftsched/internal/sim"
	"ftsched/internal/workload"
)

// BenchmarkCampaignRun times one campaign.Run on the campaign workload's two
// model shapes, 60 operations on 6 processors: FT1 K=1 on a bus and FT2
// K=1 on a full mesh. Each run is 1024 scenarios of the four-class mix with
// up to 2 faults on 1 worker, so a CPU profile shows the simulator and the
// merge without scheduling noise:
//
//	go test -run '^$' -bench CampaignRun -cpuprofile cpu.out ./internal/campaign
func BenchmarkCampaignRun(b *testing.B) {
	for _, sh := range []struct {
		name string
		bus  bool
		h    core.Heuristic
	}{{"bus/ft1", true, core.FT1}, {"mesh/ft2", false, core.FT2}} {
		b.Run(sh.name, func(b *testing.B) {
			in, err := workload.RandomInstance(rand.New(rand.NewSource(7)), 60, 6, sh.bus, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Schedule(sh.h, in.Graph, in.Arch, in.Spec, 1, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.Compile(res.Schedule, in.Graph, in.Arch, in.Spec)
			if err != nil {
				b.Fatal(err)
			}
			cfg := campaign.Config{
				N: 1024, Seed: 1, Workers: 1, MaxFaults: 2, K: 1,
				Mix: map[string]float64{"failstop": 1, "intermittent": 1, "burst": 1, "linkfail": 1},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := campaign.Run(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.CrossCheck.Consistent {
					b.Fatal("cross-check is not consistent")
				}
			}
			b.ReportMetric(float64(cfg.N)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}
