package topicmodel

import (
	"math"
	"testing"

	"topmine/internal/xrand"
)

// denseWorker is the reference AD-LDA worker: every clique is drawn
// from the dense O(K) Eq. 7 conditional against the barrier-frozen
// globals plus a private dense delta. It is the oracle the sparse
// worker (parWorker) is pinned to, so its delta is bookkept here,
// independently of parWorker's live lists.
type denseWorker struct {
	m       *Model
	rows    map[int32][]int32 // δ_w, K entries each
	nk      []int64           // δ_k
	weights []float64
	rng     *xrand.RNG
}

func newDenseWorker(m *Model, seed uint64) *denseWorker {
	return &denseWorker{
		m:       m,
		rows:    make(map[int32][]int32),
		nk:      make([]int64, m.K),
		weights: make([]float64, m.K),
		rng:     xrand.New(seed),
	}
}

func (o *denseWorker) row(w int32) []int32 {
	r, ok := o.rows[w]
	if !ok {
		r = make([]int32, o.m.K)
		o.rows[w] = r
	}
	return r
}

// move adds (sign=+1) or removes (sign=-1) a clique's word and topic
// counts for topic k in the delta; the caller owns the document row.
func (o *denseWorker) move(clique []int32, k int32, sign int32) {
	for _, w := range clique {
		o.row(w)[k] += sign
	}
	o.nk[k] += int64(sign) * int64(len(clique))
}

// conditional is the dense Eq. 7 conditional of a removed clique
// against the worker's view: frozen global + private delta.
func (o *denseWorker) conditional(ndk []int32, clique []int32) []float64 {
	m := o.m
	for k := 0; k < m.K; k++ {
		p := 1.0
		ak := m.Alpha[k] + float64(ndk[k])
		denom := m.BetaSum + float64(m.Nk[k]+o.nk[k])
		for j, w := range clique {
			fj := float64(j)
			nw := m.nwkRow(w)[k] + o.row(w)[k]
			p *= (ak + fj) * (m.Beta + float64(nw)) / (denom + fj)
		}
		o.weights[k] = p
	}
	return o.weights
}

// sampleCliqueDelta is the dense worker draw of clique g of document d.
// Document rows are owned by the document's worker, so they mutate in
// place.
func (o *denseWorker) sampleCliqueDelta(d, g int) {
	m := o.m
	clique := m.Docs[d].Cliques[g]
	old := m.Z[d][g]
	ndk := m.ndkRow(d)
	ndk[old] -= int32(len(clique))
	o.move(clique, old, -1)
	k := int32(o.rng.Categorical(o.conditional(ndk, clique)))
	m.Z[d][g] = k
	ndk[k] += int32(len(clique))
	o.move(clique, k, 1)
}

// sweepParallelDense is SweepParallel with the dense oracle worker:
// the workers run one after another (they only read the frozen
// globals, so order does not matter) and their deltas are folded at
// the barrier.
func (m *Model) sweepParallelDense(workers int) {
	base := m.NextSweepBase()
	var ws []*denseWorker
	for wi, r := range ShardRanges(m.Docs, workers) {
		o := newDenseWorker(m, base+uint64(wi)*workerSeedStride)
		for d := r[0]; d < r[1]; d++ {
			for g := range m.Docs[d].Cliques {
				o.sampleCliqueDelta(d, g)
			}
		}
		ws = append(ws, o)
	}
	for _, o := range ws {
		for w, row := range o.rows {
			dst := m.nwkRow(w)
			for k, v := range row {
				dst[k] += v
			}
		}
		for k, v := range o.nk {
			m.Nk[k] += v
		}
	}
	m.invalidateSparse()
}

// plantedCliqueDocs builds a corpus with planted topic structure and
// clique lengths 1–4 over a vocabulary of v words: each of 10 planted
// topics owns a slice of the vocabulary (skewed towards its first
// words), each document mixes two of them, and a clique draws its
// words from one topic's slice. Trained word-topic rows come out
// sparse, which is what the sparse worker's index is built for.
func plantedCliqueDocs(n, v int, seed uint64) []Doc {
	r := xrand.New(seed)
	const planted = 10
	span := v / planted
	docs := make([]Doc, n)
	for d := range docs {
		a, b := r.Intn(planted), r.Intn(planted)
		cliques := make([][]int32, 20+r.Intn(40))
		for g := range cliques {
			t := a
			if r.Intn(3) == 0 {
				t = b
			}
			w := 1
			if x := r.Intn(10); x >= 7 {
				w = x - 5 // 2, 3 or 4
			}
			c := make([]int32, w)
			for j := range c {
				c[j] = int32(t*span + r.Intn(r.Intn(span)+1))
			}
			cliques[g] = c
		}
		docs[d] = Doc{ID: d, Cliques: cliques}
	}
	return docs
}

// shardOf builds the shard model a distributed worker would hold for
// docs [lo, hi) of m: copies of its assignments, globals and priors.
func shardOf(t testing.TB, m *Model, lo, hi int) *Model {
	t.Helper()
	z := make([][]int32, hi-lo)
	for i := range z {
		z[i] = append([]int32(nil), m.Z[lo+i]...)
	}
	sm, err := NewShardModel(append([]Doc(nil), m.Docs[lo:hi]...), m.V, m.K,
		append([]float64(nil), m.Alpha...), m.AlphaSum, m.Beta, z,
		append([]int32(nil), m.nwk...), append([]int64(nil), m.Nk...))
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.SetPriors(m.Alpha, m.AlphaSum, m.Beta, m.BetaSum); err != nil {
		t.Fatal(err)
	}
	return sm
}

// workerCoverage counts the situations the per-draw oracle test must
// have met for its pin to mean anything.
type workerCoverage struct {
	byLen  [5]int // draws per clique length (4 = 4 and longer)
	added  int    // a word topic absent from the frozen list, live through the delta
	zeroed int    // a frozen-list topic the delta drove to global+delta == 0
}

// workerConditional reassembles the sparse worker's per-topic weight of
// a removed clique from its buckets — smoothing term + document bucket
// + word bucket over the live list for unigrams; the caught-up S_W term
// or the exact Eq. 7 product over the live counts for phrases — and
// checks the maintained masses against their definitions.
func workerConditional(t *testing.T, ws *parWorker, clique []int32, out []float64) {
	t.Helper()
	W := len(clique)
	ws.catchUp(W)
	sum := 0.0
	for k := 0; k < ws.k; k++ {
		sum += ws.term[W][k]
	}
	if math.Abs(sum-ws.smooth[W]) > 1e-9*sum {
		t.Fatalf("S_%d = %.17g, terms sum to %.17g", W, ws.smooth[W], sum)
	}
	if W == 1 {
		r := 0.0
		for k := 0; k < ws.k; k++ {
			out[k] = ws.term[1][k] + float64(ws.ndkRow[k])*ws.beta*ws.invden[k]
			r += float64(ws.ndkRow[k]) * ws.beta * ws.invden[k]
		}
		if math.Abs(r-ws.docR) > 1e-9*math.Max(r, 1e-300) {
			t.Fatalf("document bucket %.17g, definition %.17g", ws.docR, r)
		}
		for _, e := range ws.live[ws.slotOf[clique[0]]] {
			k := uint32(e)
			out[k] += float64(e>>32) * ws.qcoef[k]
		}
		return
	}
	counts := make([]map[int32]int32, W)
	cand := make(map[int32]bool)
	for _, k := range ws.docTopics {
		cand[k] = true
	}
	for j, w := range clique {
		counts[j] = make(map[int32]int32)
		for _, e := range ws.live[ws.slotOf[w]] {
			counts[j][int32(uint32(e))] = int32(e >> 32)
			cand[int32(uint32(e))] = true
		}
	}
	for k := 0; k < ws.k; k++ {
		out[k] = ws.term[W][k]
	}
	for k := range cand {
		akn := ws.alpha[k] + float64(ws.ndkRow[k])
		den := ws.betaSum + float64(ws.nk[k])
		p := 1.0
		for j := range clique {
			fj := float64(j)
			p *= (akn + fj) * (ws.beta + float64(counts[j][k])) / (den + fj)
		}
		out[k] = p
	}
}

// checkWorkerSweep runs sweepShard's loop for documents [lo, hi) of m
// as worker ws, and at every draw point pins the sparse conditional to
// the dense oracle's at 1e-9. Draws come from the sparse worker, so the
// chain is the production one; the oracle follows it with its own
// dense delta.
func checkWorkerSweep(t *testing.T, m *Model, ws *parWorker, wt [][]uint64, lo, hi int, seed uint64, o *denseWorker, cov *workerCoverage) {
	t.Helper()
	ws.wt = wt
	ws.rng.Seed(seed)
	copy(ws.nk, m.Nk)
	ws.reset(m.Alpha, m.Beta, m.BetaSum, ws.nk)
	sparse := make([]float64, m.K)
	for d := lo; d < hi; d++ {
		cliques := m.Docs[d].Cliques
		if len(cliques) == 0 {
			continue
		}
		ws.startDoc(m.ndkRow(d))
		for g, clique := range cliques {
			old := m.Z[d][g]
			ws.apply(clique, old, -1)
			o.move(clique, old, -1)
			dense := o.conditional(m.ndkRow(d), clique)
			workerConditional(t, ws, clique, sparse)
			for k := 0; k < m.K; k++ {
				if math.Abs(sparse[k]-dense[k]) > 1e-9*dense[k] {
					t.Fatalf("doc %d clique %d (W=%d) topic %d: sparse %.17g dense %.17g",
						d, g, len(clique), k, sparse[k], dense[k])
				}
			}
			cov.byLen[min(len(clique), 4)]++
			for _, w := range clique {
				for k, dv := range o.row(w) {
					gv := m.nwkRow(w)[k]
					switch {
					case gv == 0 && dv > 0:
						cov.added++
					case gv > 0 && gv+dv == 0:
						cov.zeroed++
					}
				}
			}
			k := ws.draw(clique)
			m.Z[d][g] = k
			ws.apply(clique, k, 1)
			o.move(clique, k, 1)
		}
	}
	for k := range o.nk {
		if ws.dnk[k] != o.nk[k] {
			t.Fatalf("topic-total delta %d: sparse %d, oracle %d", k, ws.dnk[k], o.nk[k])
		}
	}
}

// TestSparseWorkerMatchesDenseConditional pins the AD-LDA worker's
// sparse bucketed conditional to the dense oracle draw by draw, for
// unigram and phrase cliques of length 2–4, through in-process sweeps
// (including after asymmetric α from OptimizeAlpha) and through a
// distributed barrier — ShardSweep after SetGlobalRows refreshed the
// shard's index — where the materialised wire delta must equal the
// oracle's dense one.
func TestSparseWorkerMatchesDenseConditional(t *testing.T) {
	docs := plantedCliqueDocs(90, 300, 11)
	m := NewModel(docs, 300, Options{K: 30, Iterations: 1, Seed: 5})
	for i := 0; i < 3; i++ {
		m.SweepParallel(2) // leave random initialisation: sparse lists
	}
	var cov workerCoverage
	ranges := ShardRanges(m.Docs, 2)
	for sweep := 0; sweep < 4; sweep++ {
		if sweep == 2 {
			m.OptimizeAlpha(5)
			m.OptimizeBeta(5)
			lo, hi := m.Alpha[0], m.Alpha[0]
			for _, a := range m.Alpha {
				lo, hi = math.Min(lo, a), math.Max(hi, a)
			}
			if hi-lo < 1e-3*hi {
				t.Fatalf("alpha still symmetric after OptimizeAlpha: [%g, %g]", lo, hi)
			}
		}
		ps, sp := m.ensurePar(2), m.ensureSparse()
		base := m.NextSweepBase()
		for wi, r := range ranges {
			seed := base + uint64(wi)*workerSeedStride
			checkWorkerSweep(t, m, ps.workers[wi], sp.wt, r[0], r[1], seed, newDenseWorker(m, 0), &cov)
		}
		m.reconcile(ps, sp)
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("in-process sweep %d: %v", sweep, err)
		}
	}

	// One distributed barrier, then a checked ShardSweep against the
	// rebroadcast globals.
	shards := make([]*Model, len(ranges))
	for wi, r := range ranges {
		shards[wi] = shardOf(t, m, r[0], r[1])
	}
	base := m.NextSweepBase()
	deltas := make([]*CountRows, len(shards))
	for wi, sm := range shards {
		wire := sm.ShardSweep(wi, base).AppendTo(nil)
		dec, err := DecodeCountRows(wire, m.V, m.K)
		if err != nil {
			t.Fatal(err)
		}
		deltas[wi] = dec
		sm.ResetShardDelta()
	}
	combined, err := m.FoldShardDeltas(deltas)
	if err != nil {
		t.Fatal(err)
	}
	base = m.NextSweepBase()
	for wi, sm := range shards {
		if err := sm.SetGlobalRows(combined); err != nil {
			t.Fatal(err)
		}
		if err := sm.ensureSparse().checkWordLists(); err != nil {
			t.Fatalf("shard %d index after SetGlobalRows: %v", wi, err)
		}
		ws := sm.ensurePar(1).workers[0]
		o := newDenseWorker(sm, 0)
		checkWorkerSweep(t, sm, ws, sm.sp.wt, 0, len(sm.Docs), base+uint64(wi)*workerSeedStride, o, &cov)
		delta := ws.delta()
		got := make([][]int32, sm.V)
		for i, w := range delta.Words {
			if _, ok := o.rows[w]; !ok {
				t.Fatalf("shard %d: wire delta for word %d, which the oracle never moved", wi, w)
			}
			got[w] = make([]int32, sm.K)
			for _, e := range delta.Lists[i] {
				got[w][uint32(e)] = int32(e >> 32)
			}
		}
		for w, row := range o.rows {
			if got[w] == nil {
				for _, v := range row {
					if v != 0 {
						t.Fatalf("shard %d: word %d has an oracle delta but no wire row", wi, w)
					}
				}
			} else if !int32SlicesEq(got[w], row) {
				t.Fatalf("shard %d: wire delta of word %d %v, oracle %v", wi, w, got[w], row)
			}
		}
	}

	for W := 1; W <= 4; W++ {
		if cov.byLen[W] == 0 {
			t.Errorf("no draws of clique length %d", W)
		}
	}
	if cov.added == 0 || cov.zeroed == 0 {
		t.Errorf("delta cases not exercised: %d draws saw a delta-only topic, %d a global+delta zero", cov.added, cov.zeroed)
	}
	t.Logf("draws by length %v; delta-only topics %d, zeroed topics %d", cov.byLen[1:], cov.added, cov.zeroed)
}

// TestSparseWorkerPerplexityMatchesDenseOracle is the statistical
// companion of the per-draw pin: AD-LDA training with the sparse worker
// and with the dense oracle worker are two chains of the same sampler,
// so their seed-averaged held-out perplexities agree within 2%.
func TestSparseWorkerPerplexityMatchesDenseOracle(t *testing.T) {
	_, test, v := synthPhraseDocs(t, "dblp-abstracts", 250)
	var ps, pd float64
	seeds := []uint64{21, 22, 23, 24}
	for _, seed := range seeds {
		opt := Options{K: 10, Iterations: 150, Seed: seed}
		docs, _, _ := synthPhraseDocs(t, "dblp-abstracts", 250)
		ps += Perplexity(TrainParallel(docs, v, opt, 2), test)
		docs, _, _ = synthPhraseDocs(t, "dblp-abstracts", 250)
		m := NewModel(docs, v, opt)
		for it := 0; it < opt.Iterations; it++ {
			m.sweepParallelDense(2)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		pd += Perplexity(m, test)
	}
	ps /= float64(len(seeds))
	pd /= float64(len(seeds))
	if diff := math.Abs(ps-pd) / pd; diff > 0.02 || math.IsNaN(diff) {
		t.Errorf("mean sparse-worker perplexity %.3f vs dense oracle %.3f (%.2f%% apart, want <= 2%%)", ps, pd, diff*100)
	} else {
		t.Logf("mean sparse-worker perplexity %.3f vs dense oracle %.3f (%.2f%% apart)", ps, pd, diff*100)
	}
}

// TestWorkerSweepAllocsIndependentOfKV pins the worker's cost limits:
// after warm-up, a SweepParallel(2) sweep and a distributed worker's
// barrier (ShardSweep, fold, SetGlobalRows) allocate the same number of
// objects whatever K and V are — nothing proportional to the model,
// only goroutine and header bookkeeping. A reused list that outgrows
// its capacity still allocates once in a while, and enough of those in
// one measured window add one to its average, so each configuration
// may sit within one allocation of the K=50, V=200 baseline.
func TestWorkerSweepAllocsIndependentOfKV(t *testing.T) {
	var par, shard []float64
	for _, k := range []int{50, 1000} {
		for _, v := range []int{200, 800} {
			m := NewModel(plantedCliqueDocs(80, v, 3), v, Options{K: k, Iterations: 1, Seed: 7})
			for i := 0; i < 30; i++ {
				m.SweepParallel(2)
			}
			par = append(par, testing.AllocsPerRun(10, func() { m.SweepParallel(2) }))

			// One worker holding every document: m is its coordinator.
			sm := shardOf(t, m, 0, len(m.Docs))
			barrier := func() {
				delta := sm.ShardSweep(0, 1)
				combined, err := m.FoldShardDeltas([]*CountRows{delta})
				if err != nil {
					t.Fatal(err)
				}
				sm.ResetShardDelta()
				if err := sm.SetGlobalRows(combined); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 30; i++ {
				barrier()
			}
			shard = append(shard, testing.AllocsPerRun(10, barrier))
		}
	}
	for i := range par {
		if math.Abs(par[i]-par[0]) > 1 || math.Abs(shard[i]-shard[0]) > 1 {
			t.Fatalf("allocations depend on K or V: SweepParallel %v, ShardSweep %v (K×V = 50×200, 50×800, 1000×200, 1000×800)", par, shard)
		}
	}
	t.Logf("allocs per sweep: SweepParallel(2) %v, ShardSweep %v", par[0], shard[0])
}
