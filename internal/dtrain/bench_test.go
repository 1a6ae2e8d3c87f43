package dtrain

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"testing"
	"time"

	"topmine/internal/topicmodel"
)

// TestMain doubles as the worker-process entry point: when
// DTRAIN_WORKER_ADDR is set, the test binary dials the coordinator and
// serves one training job instead of running tests. That lets
// BenchmarkDistributedSweep measure genuine multi-process training —
// separate address spaces, real loopback TCP — without shipping a
// separate worker binary.
func TestMain(m *testing.M) {
	if addr := os.Getenv("DTRAIN_WORKER_ADDR"); addr != "" {
		conn, err := Dial(addr, 30*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtrain bench worker:", err)
			os.Exit(1)
		}
		if err := RunWorker(conn, WorkerOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "dtrain bench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkDistributedSweep — the distributed training headline. One
// op is a full coordinator-side run (spawn workers, ship state, train,
// collect); tokens/s is computed from the coordinator's per-sweep
// barrier timings only (sample wait + reconcile), so process spawn and
// corpus preprocessing do not pollute the comparison. The serial row
// is the COST baseline: the same schedule on the same fixture with the
// serial sparse sampler in this process, timed over its sweeps. Each
// workers row reports cost_ratio, its tokens/s over the serial row's;
// above 1 the distributed run beats one core. Worker processes share
// the machine's cores with each other and the coordinator, so compare
// rows with the core count in the bench header.
func BenchmarkDistributedSweep(b *testing.B) {
	const benchSweeps = 15
	exe, err := os.Executable()
	if err != nil {
		b.Fatalf("executable: %v", err)
	}
	fix := buildFixture(b, "dblp-abstracts", 400)
	tokens := 0
	for i := range fix.docs {
		tokens += fix.docs[i].NumTokens()
	}
	opt := topicmodel.Options{K: 96, Iterations: benchSweeps, Seed: 42}

	serialRate := func(runs int) float64 {
		var sweepTime time.Duration
		for i := 0; i < runs; i++ {
			m := topicmodel.NewModel(fix.docs, fix.v, opt)
			t0 := time.Now()
			for it := 0; it < benchSweeps; it++ {
				m.Sweep()
			}
			sweepTime += time.Since(t0)
		}
		return float64(tokens*benchSweeps*runs) / sweepTime.Seconds()
	}
	var serial float64
	b.Run("K96/serial", func(b *testing.B) {
		serial = serialRate(b.N)
		b.ReportMetric(serial, "tokens/s")
	})
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("K96/workers%d", workers), func(b *testing.B) {
			var sweepTime time.Duration
			for i := 0; i < b.N; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatalf("listen: %v", err)
				}
				cmds := make([]*exec.Cmd, workers)
				for w := range cmds {
					cmd := exec.Command(exe, "-test.run=^$")
					cmd.Env = append(os.Environ(), "DTRAIN_WORKER_ADDR="+ln.Addr().String())
					cmd.Stderr = os.Stderr
					if err := cmd.Start(); err != nil {
						b.Fatalf("start worker: %v", err)
					}
					cmds[w] = cmd
				}
				job := fix.job
				job.Model = opt
				_, err = Train(ln, job, Options{
					Workers: workers,
					SweepStats: func(st topicmodel.SweepStats) {
						sweepTime += st.Sample + st.Reconcile
					},
				})
				if err != nil {
					b.Fatalf("Train: %v", err)
				}
				for _, cmd := range cmds {
					if err := cmd.Wait(); err != nil {
						b.Fatalf("worker exit: %v", err)
					}
				}
				ln.Close()
			}
			rate := float64(tokens*benchSweeps*b.N) / sweepTime.Seconds()
			b.ReportMetric(rate, "tokens/s")
			if serial == 0 { // serial row filtered out: measure it here
				serial = serialRate(1)
			}
			b.ReportMetric(rate/serial, "cost_ratio")
		})
	}
}
