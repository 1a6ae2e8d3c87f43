package topicmodel

import (
	"slices"
	"sync"
	"time"

	"topmine/internal/xrand"
)

// Parallel training: an approximate distributed Gibbs sampler in the
// style of AD-LDA (Newman et al., "Distributed Algorithms for Topic
// Models"), addressing the §8 future-work item on further scalability
// of the topic-modeling stage. Documents are sharded across workers;
// each sweep, every worker samples its shard against the global
// topic-word counts frozen at the sweep barrier plus its own private
// delta, and the deltas are reconciled at the barrier:
//
//	global' = global + Σ_w delta_w
//
// Because every clique belongs to exactly one worker, the reconciled
// counts equal the counts recomputed from the final assignments — the
// model invariants hold exactly; only the *conditional distributions
// sampled from* are stale within a sweep, which is the standard AD-LDA
// approximation. Results are deterministic for a fixed worker count
// but differ from the serial sampler's.
//
// Sampling: each worker runs the serial sampler's SparseLDA bucketed
// draw (sparse.go) over its view of the counts — the frozen globals
// plus its delta. The smoothing and document buckets divide by
// N_k + δ_k; the word bucket and the phrase candidates walk, per word
// the worker touched, a private live list of the topics with
// N_wk + δ_wk > 0, seeded from the frozen globals' word-topic index on
// first touch and kept current like the serial index. A draw costs
// O(K_d + K_w) plus the rare smoothing walk, as in a serial sweep, so
// W workers on W cores beat one core. The frozen index itself is built
// once and then refreshed row by row after each fold: in process for
// the words the workers touched, on a distributed worker for the
// rebroadcast rows (SetGlobalRows).
//
// Memory: a worker's delta is sparse — one reusable live list per word
// its shard touched, plus an O(V) slot index — and is never stored as
// K-stride rows; δ_w is the live list minus the frozen one, and a
// distributed worker ships it as that difference's (count, topic)
// entries. The buffers persist across sweeps: after the first sweeps
// of a training run, SweepParallel allocates nothing proportional to
// the model. Reconciliation walks only those lists, worker-outermost,
// so a touched row costs O(nnz), not O(K).

// workerSeedStride separates the per-worker RNG streams derived from a
// sweep's base draw. The distributed worker (dist.go) must use the
// same constant for its streams to match in-process ones.
const workerSeedStride = 0x9e3779b97f4a7c15

// ShardRanges splits docs into `workers` contiguous [lo, hi) ranges
// balanced on cumulative token counts, so one long-document shard
// doesn't stall the sweep barrier the way equal-document chunking did.
// The boundaries are a pure function of (docs, workers): shard wi ends
// at the first document whose cumulative token count reaches
// total·(wi+1)/workers. Ranges cover [0, len(docs)) exactly; a range
// may be empty under extreme skew.
func ShardRanges(docs []Doc, workers int) [][2]int {
	ranges := make([][2]int, workers)
	total := 0
	for i := range docs {
		total += docs[i].NumTokens()
	}
	d, cum := 0, 0
	for wi := 0; wi < workers; wi++ {
		lo := d
		if wi == workers-1 {
			d = len(docs)
		} else {
			target := total * (wi + 1) / workers
			for d < len(docs) && cum < target {
				cum += docs[d].NumTokens()
				d++
			}
		}
		ranges[wi] = [2]int{lo, d}
	}
	return ranges
}

// SweepStats is one parallel (or distributed) sweep's timing breakdown,
// delivered through the hook installed by Options.SweepStats or
// SetSweepStats. Sample is the barrier wait — sweep start to the
// slowest worker finishing (for a distributed run, to its delta frame
// arriving) — and Reconcile covers folding the deltas back into the
// global counts (plus the rebroadcast, when distributed).
type SweepStats struct {
	// Sweep is the 1-based sweep this breakdown describes. In-process
	// parallel training counts SweepParallel calls since the model was
	// built; a distributed run reports the coordinator's schedule
	// iteration, which rewinds with the rollback after an elastic
	// recovery (so the same sweep number can be reported twice).
	Sweep        int
	Workers      int
	Sample       time.Duration
	Reconcile    time.Duration
	WorkerSample []time.Duration // per-worker sample wall time
	// Checkpoint is the time spent writing this barrier's on-disk
	// checkpoint; zero on barriers that did not write one. Distributed
	// runs only.
	Checkpoint time.Duration
	// Recovered counts the workers re-accepted after failures so far in
	// the run (cumulative). Nonzero only for elastic distributed runs
	// that actually lost and replaced workers.
	Recovered int
}

// SetSweepStats installs (or clears) the per-sweep timing hook. Only
// the parallel and distributed sweep paths report; timing is not
// measured when no hook is set.
func (m *Model) SetSweepStats(fn func(SweepStats)) { m.sweepStats = fn }

// NextSweepBase draws the per-sweep RNG base exactly as SweepParallel
// does. The distributed coordinator calls it once per sweep so worker
// RNG streams match the in-process sampler draw for draw.
func (m *Model) NextSweepBase() uint64 { return m.rng.Uint64() }

// SweepParallel runs one Gibbs pass with the given number of workers.
// workers <= 1 falls back to the exact serial sweep.
func (m *Model) SweepParallel(workers int) {
	m.sweepSeq++
	if workers <= 1 || len(m.Docs) < 2*workers {
		m.Sweep()
		return
	}
	base := m.NextSweepBase()
	ps := m.ensurePar(workers)
	sp := m.ensureSparse() // its word-topic index is the frozen globals' index

	stats := m.sweepStats
	var t0 time.Time
	var perWorker []time.Duration
	if stats != nil {
		t0 = time.Now()
		perWorker = make([]time.Duration, workers)
	}

	var wg sync.WaitGroup
	for wi, r := range ShardRanges(m.Docs, workers) {
		lo, hi := r[0], r[1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(ws *parWorker, wi, lo, hi int) {
			defer wg.Done()
			var start time.Time
			if stats != nil {
				start = time.Now()
			}
			m.sweepShard(ws, sp.wt, lo, hi, base+uint64(wi)*workerSeedStride)
			if stats != nil {
				perWorker[wi] = time.Since(start)
			}
		}(ps.workers[wi], wi, lo, hi)
	}
	wg.Wait()

	var sampleDur time.Duration
	var t1 time.Time
	if stats != nil {
		sampleDur = time.Since(t0)
		t1 = time.Now()
	}
	m.reconcile(ps, sp)
	if stats != nil {
		stats(SweepStats{
			Sweep:        m.sweepSeq,
			Workers:      workers,
			Sample:       sampleDur,
			Reconcile:    time.Since(t1),
			WorkerSample: perWorker,
		})
	}
}

// reconcile folds every worker's delta into the global counts,
// worker-outermost, and brings the word-topic index up to date. A
// worker's delta for word w is its live list minus the frozen list, so
// each touched row costs O(nnz), not O(K). The frozen lists stay in
// place (their packed counts are the values being replaced) until
// every worker has folded; topics a fold may have made nonzero are
// appended, and one resync per touched word then restores the counts
// and the order.
func (m *Model) reconcile(ps *parState, sp *sparseSampler) {
	f := m.foldScratch()
	for _, ws := range ps.workers {
		for si, w := range ws.touched {
			dst := m.nwkRow(w)
			for _, e := range sp.wt[w] {
				dst[uint32(e)] -= int32(e >> 32)
			}
			for _, e := range ws.live[si] {
				k := uint32(e)
				if dst[k] == 0 {
					sp.wt[w] = append(sp.wt[w], uint64(k))
				}
				dst[k] += int32(e >> 32)
			}
			ws.slotOf[w] = -1
			f.add(w)
		}
		ws.touched = ws.touched[:0]
		for k, v := range ws.dnk {
			m.Nk[k] += v
			ws.dnk[k] = 0
		}
	}
	for _, w := range f.words {
		sp.wt[w] = sortPacked(sp.recount(w))
	}
}

// parState holds the reusable worker buffers across sweeps.
type parState struct {
	workers []*parWorker
}

// parWorker is one AD-LDA worker: SparseLDA buckets over the
// barrier-frozen global counts plus its private sparse delta, and
// sampling scratch. The worker's view of a count is global + delta:
// N_k + δ_k in buckets.nk, and, for each word it touched, a live
// packed topic list of N_wk + δ_wk, seeded from the frozen index on
// first touch and maintained like the serial index. The word delta is
// never stored densely: δ_w is the live list minus the frozen one,
// materialised as sparse (count, topic) entries only for the wire
// (ShardSweep). All buffers are reused across sweeps.
type parWorker struct {
	buckets
	wt      [][]uint64 // frozen globals' word-topic index (shared, read-only)
	dnk     []int64    // [K] δ_k, the topic-total delta
	slotOf  []int32    // [V] index into live, -1 = word untouched
	live    [][]uint64 // per slot: packed live topic list of its word
	touched []int32    // word of each slot, in first-touch order
	wcnt    []int32    // [W·K] scratch count rows of the clique at hand, zero between draws
	dent    []uint64   // delta: entry arena of the lists below
	dwords  []int32    // delta: words whose counts moved
	dlists  [][]uint64 // delta: packed δ_w of each, in dent
	crows   [][]int32  // the clique's rows in wcnt
	rng     *xrand.RNG
}

// ensurePar returns reusable worker state for the given worker count,
// building it when the count changes (determinism is only promised
// for a fixed count, so a rebuild never mixes streams).
func (m *Model) ensurePar(workers int) *parState {
	if m.par != nil && len(m.par.workers) == workers {
		return m.par
	}
	lengths := cliqueLengths(m.Docs)
	ps := &parState{workers: make([]*parWorker, workers)}
	for i := range ps.workers {
		ws := &parWorker{
			buckets: newBuckets(m.K, lengths),
			dnk:     make([]int64, m.K),
			slotOf:  make([]int32, m.V),
			rng:     xrand.New(0),
		}
		ws.nk = make([]int64, m.K)
		for w := range ws.slotOf {
			ws.slotOf[w] = -1
		}
		ps.workers[i] = ws
	}
	m.par = ps
	return ps
}

// slot returns the worker's slot for word w, seeding its live list
// from the frozen index on first touch.
func (ws *parWorker) slot(w int32) int32 {
	if si := ws.slotOf[w]; si >= 0 {
		return si
	}
	si := int32(len(ws.touched))
	if int(si) == len(ws.live) {
		ws.live = append(ws.live, nil)
	}
	ws.slotOf[w] = si
	ws.touched = append(ws.touched, w)
	ws.live[si] = append(ws.live[si][:0], ws.wt[w]...)
	return si
}

// sweepShard resamples documents [lo, hi) as one AD-LDA worker whose
// RNG stream starts at seed. wt is the word-topic index of the frozen
// globals, shared read-only by every worker of the sweep. Document
// rows (Z, Ndk) in the range belong to this worker alone.
func (m *Model) sweepShard(ws *parWorker, wt [][]uint64, lo, hi int, seed uint64) {
	ws.wt = wt
	ws.rng.Seed(seed)
	copy(ws.nk, m.Nk)
	ws.reset(m.Alpha, m.Beta, m.BetaSum, ws.nk)
	for d := lo; d < hi; d++ {
		cliques := m.Docs[d].Cliques
		if len(cliques) == 0 {
			continue
		}
		ws.startDoc(m.ndkRow(d))
		z := m.Z[d]
		for g, clique := range cliques {
			ws.apply(clique, z[g], -1)
			z[g] = ws.draw(clique)
			ws.apply(clique, z[g], 1)
		}
	}
}

// draw samples the topic of a removed clique from the worker's view:
// the serial draws over the words' live lists, the dense conditional
// when their masses are degenerate.
func (ws *parWorker) draw(clique []int32) int32 {
	var k int32
	var ok bool
	if len(clique) == 1 {
		k, ok = ws.drawUnigram(ws.live[ws.slotOf[clique[0]]], ws.rng)
	} else {
		lists := ws.cliqueLists(clique)
		k, ok = ws.drawPhrase(lists, ws.countRows(lists), ws.rng)
		ws.clearRows(lists)
	}
	if !ok {
		lists := ws.cliqueLists(clique)
		k = ws.denseDraw(ws.countRows(lists), ws.rng)
		ws.clearRows(lists)
	}
	return k
}

// countRows scatters the clique words' live lists into K-stride
// scratch rows, the form the phrase and dense draws read; clearRows
// zeroes the scattered entries again.
func (ws *parWorker) countRows(lists [][]uint64) [][]int32 {
	k := ws.k
	if len(ws.wcnt) < len(lists)*k {
		ws.wcnt = make([]int32, len(lists)*k)
	}
	rows := ws.crows[:0]
	for j, list := range lists {
		row := ws.wcnt[j*k : (j+1)*k : (j+1)*k]
		for _, e := range list {
			row[uint32(e)] = int32(e >> 32)
		}
		rows = append(rows, row)
	}
	ws.crows = rows
	return rows
}

func (ws *parWorker) clearRows(lists [][]uint64) {
	for j, list := range lists {
		row := ws.wcnt[j*ws.k : (j+1)*ws.k]
		for _, e := range list {
			row[uint32(e)] = 0
		}
	}
}

// cliqueLists returns the live lists of the clique's words, which the
// removal of the clique has already touched.
func (ws *parWorker) cliqueLists(clique []int32) [][]uint64 {
	words := ws.words[:0]
	for _, w := range clique {
		words = append(words, ws.live[ws.slotOf[w]])
	}
	ws.words = words
	return words
}

// apply adds (sign=+1) or removes (sign=-1) a clique's counts for
// topic k in the current document: the document row in place, the
// live lists and topic totals, then the buckets.
func (ws *parWorker) apply(clique []int32, k int32, sign int32) {
	w := int32(len(clique))
	oldNdk := ws.ndkRow[k]
	newNdk := oldNdk + sign*w
	ws.ndkRow[k] = newNdk
	ws.nk[k] += int64(sign * w)
	ws.dnk[k] += int64(sign * w)
	for _, word := range clique {
		si := ws.slot(word)
		if sign > 0 {
			ws.live[si] = wtInc(ws.live[si], uint32(k))
		} else {
			ws.live[si] = wtDec(ws.live[si], uint32(k))
		}
	}
	ws.moveTopic(k, oldNdk, newNdk)
}

// delta returns the sweep's word delta as sparse rows in slot order:
// for every word whose counts moved, δ_w = live list − frozen list as
// packed signed (count, topic) entries, built in O(nnz) through the
// zeroed scratch row. Words whose moves cancelled out are left out.
// The result aliases reusable buffers, valid until the next sweep.
func (ws *parWorker) delta() *CountRows {
	if len(ws.wcnt) < ws.k {
		ws.wcnt = make([]int32, ws.k)
	}
	row := ws.wcnt[:ws.k]
	n := 0
	for si, w := range ws.touched {
		n += len(ws.wt[w]) + len(ws.live[si])
	}
	// Sized once, so the lists below never move.
	ents := slices.Grow(ws.dent[:0], n)
	words, lists := ws.dwords[:0], ws.dlists[:0]
	for si, w := range ws.touched {
		frozen, live := ws.wt[w], ws.live[si]
		for _, e := range frozen {
			row[uint32(e)] -= int32(e >> 32)
		}
		for _, e := range live {
			row[uint32(e)] += int32(e >> 32)
		}
		start := len(ents)
		ents = appendMoved(ents, row, frozen)
		ents = appendMoved(ents, row, live)
		if len(ents) > start {
			words = append(words, w)
			lists = append(lists, ents[start:len(ents):len(ents)])
		}
	}
	ws.dent, ws.dwords, ws.dlists = ents, words, lists
	return &CountRows{K: ws.k, Words: words, Lists: lists, Nk: ws.dnk}
}

// appendMoved appends the nonzero scratch-row entries of the topics in
// list to dst and zeroes them, so a topic on both lists goes out once.
func appendMoved(dst []uint64, row []int32, list []uint64) []uint64 {
	for _, e := range list {
		k := uint32(e)
		if c := row[k]; c != 0 {
			dst = append(dst, packCount(k, c))
			row[k] = 0
		}
	}
	return dst
}

// TrainParallel is Train with SweepParallel; see the package-level
// notes on the AD-LDA approximation.
func TrainParallel(docs []Doc, vocabSize int, opt Options, workers int) *Model {
	opt.fill()
	m := NewModel(docs, vocabSize, opt)
	for it := 1; it <= opt.Iterations; it++ {
		m.SweepParallel(workers)
		if opt.OptimizeHyper && it > opt.BurnIn && it%opt.HyperEvery == 0 {
			m.OptimizeAlpha(5)
			m.OptimizeBeta(5)
		}
		if opt.OnIteration != nil {
			opt.OnIteration(it, m)
		}
	}
	return m
}
