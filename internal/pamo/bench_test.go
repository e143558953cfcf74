package pamo

import (
	"fmt"
	"testing"
)

// BenchmarkSelectBatch measures one greedy batch construction — the BO
// loop's dominant cost — at small and large candidate pools, the knob the
// acquisition hot path actually scales in.
func BenchmarkSelectBatch(b *testing.B) {
	for _, candPool := range []int{8, 64} {
		b.Run(fmt.Sprintf("pool%d", candPool), func(b *testing.B) {
			opt := smallOpts(2024)
			opt.CandPool = candPool
			s := readyScheduler(b, 4, 3, opt)
			cands := s.generateCandidates()
			if len(cands) == 0 {
				b.Skip("no feasible candidates")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.selectBatch(cands)
			}
		})
	}
}

// BenchmarkRefit measures re-conditioning all per-clip outcome GPs after one
// observation round — the incremental Cholesky path versus repeated full
// fits would differ here by O(n) per call.
func BenchmarkRefit(b *testing.B) {
	s := readyScheduler(b, 4, 3, smallOpts(2024))
	clip := s.sys.Clips[0]
	cfg := s.randomConfigs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.clips[0].addMeasurement(cfg, s.prof.Measure(clip, cfg))
		if err := s.clips[0].refit(); err != nil {
			b.Fatal(err)
		}
	}
}
