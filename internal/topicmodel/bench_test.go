package topicmodel

import (
	"fmt"
	"sync"
	"testing"
)

// Sweep benchmarks — the headline numbers of the training layer. One
// op is one full Gibbs sweep; tokens/s is the throughput a training
// run sustains, and B/op shows the steady-state allocation behaviour
// (zero for the serial sparse path, O(goroutines) for parallel).
//
// Models are warmed with training sweeps before timing: a sweep from
// random initialisation touches near-dense count matrices — the worst
// case for any sparse sampler and not what the 1000-2000 sweeps of a
// real run (§5.3) pay. CI runs these as a smoke pass and archives the
// results as BENCH_topicmodel.json (see cmd/benchjson).

var (
	benchFixtureOnce sync.Once
	benchFixtureDocs []Doc
	benchFixtureV    int
)

const benchWarmupSweeps = 30

func sweepBenchFixture(b *testing.B) ([]Doc, int) {
	b.Helper()
	benchFixtureOnce.Do(func() {
		docs, _, v := synthPhraseDocs(b, "dblp-abstracts", 400)
		benchFixtureDocs, benchFixtureV = docs, v
	})
	return benchFixtureDocs, benchFixtureV
}

func BenchmarkSweep(b *testing.B) {
	docs, v := sweepBenchFixture(b)
	for _, k := range []int{50, 200, 1000} {
		for _, mode := range []string{"sparse", "dense"} {
			b.Run(fmt.Sprintf("K%d/%s", k, mode), func(b *testing.B) {
				m := NewModel(docs, v, Options{K: k, Iterations: 1, Seed: 42,
					DenseSampler: mode == "dense"})
				for i := 0; i < benchWarmupSweeps; i++ {
					m.Sweep()
				}
				tokens := float64(m.TotalTokens())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Sweep()
				}
				b.ReportMetric(tokens*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
			})
		}
	}
}

// BenchmarkSweepParallel measures in-process AD-LDA sweeps against
// the COST baseline (McSherry et al., "Scalability! But at what
// COST?"): the serial row is the sparse serial Sweep on the same
// fixture and K, which is what SweepParallel(1) runs, so the workers
// rows' tokens/s divided by the serial row's is the scale-out ratio
// against the best single thread, not against the same code at one
// worker.
func BenchmarkSweepParallel(b *testing.B) {
	docs, v := sweepBenchFixture(b)
	for _, k := range []int{200, 1000} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("K%d/workers%d", k, workers)
			if workers == 1 {
				name = fmt.Sprintf("K%d/serial", k)
			}
			b.Run(name, func(b *testing.B) {
				m := NewModel(docs, v, Options{K: k, Iterations: 1, Seed: 42})
				for i := 0; i < benchWarmupSweeps; i++ {
					m.SweepParallel(workers)
				}
				tokens := float64(m.TotalTokens())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.SweepParallel(workers)
				}
				b.ReportMetric(tokens*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
			})
		}
	}
}

// BenchmarkInferTheta isolates the serve-path fold-in cost: the
// pooled-scratch variant allocates only the returned mixture.
func BenchmarkInferTheta(b *testing.B) {
	docs, v := sweepBenchFixture(b)
	m := Train(docs, v, Options{K: 50, Iterations: 20, Seed: 42})
	cliques := [][]int32{{1, 2}, {3}, {4, 5, 6}, {7}, {8}, {9, 10}}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.InferTheta(cliques, 20, uint64(i))
		}
	})
	b.Run("scratch", func(b *testing.B) {
		sc := &InferScratch{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m.InferThetaScratch(cliques, 20, uint64(i), sc)
		}
	})
}
