package topicmodel

import (
	"fmt"
	"math"
	"slices"

	"topmine/internal/xrand"
)

// Sparse bucketed Gibbs sampling in the style of SparseLDA (Yao,
// Mimno, McCallum: "Efficient Methods for Topic Model Inference on
// Streaming Document Collections", KDD 2009), generalised to
// PhraseLDA's clique conditional (Eq. 7 of the paper).
//
// For a unigram clique the conditional factors into three buckets
//
//	p(k) ∝ α_k·β/(Σβ+N_k)            smoothing: dense but tiny mass
//	     + N_dk·β/(Σβ+N_k)           document: nonzero only on K_d topics
//	     + (α_k+N_dk)·N_wk/(Σβ+N_k)  word: nonzero only on K_w topics
//
// so a draw costs O(K_d + K_w) after maintaining the bucket masses
// incrementally: the smoothing mass changes only through N_k (two
// topics per draw), the document mass and the q-coefficients
// (α_k+N_dk)/(Σβ+N_k) are rebuilt in O(K) once per document and
// patched per draw, and the word bucket walks word w's nonzero topic
// list, kept as packed (count<<32|topic) entries in decreasing count
// order so the walk usually stops after one or two entries.
//
// A phrase clique of length W keeps the exact Eq. 7 product but only
// evaluates it on the candidate topics where it can differ from the
// "all counts zero" baseline — the document's nonzero topics plus
// each clique word's nonzero topics. All other topics share the
// precomputed smoothing mass S_W = Σ_k Π_j (α_k+j)·β/(Σβ+N_k+j),
// one such mass per clique length present in the corpus.
//
// The per-length masses are not patched eagerly on every draw (that
// would cost a division per maintained length per count change, most
// of it wasted on the unigram draws that dominate a sweep). Instead
// every N_k change is appended to a journal, and a draw of length W
// catches its mass up by replaying the journal entries it has not
// seen — re-deriving the per-topic term and folding the difference
// into S_W — or recomputing from scratch when the backlog exceeds K.
//
// All masses are floating-point accumulators, so they are recomputed
// at every sweep start (which also absorbs hyperparameter updates)
// and guarded during sampling: a draw whose total mass is not a
// positive finite number falls back to the dense O(K) path, which is
// always exact.

// buckets is the SparseLDA bucket arithmetic and the draws over one
// view of the counts: reciprocal denominators, the per-length
// smoothing masses and their N_k journal, and the current document's
// bucket. The serial sampler runs it over the live model counts; every
// AD-LDA worker (parallel.go) runs its own copy over the
// barrier-frozen globals plus its private delta. The word-topic side —
// each word's packed list of nonzero topics — belongs to the caller
// and is passed to the draws, because that is where the two views
// differ.
type buckets struct {
	k       int
	alpha   []float64 // document-topic prior, captured by reset
	beta    float64
	betaSum float64
	nk      []int64 // topic totals the denominators divide by

	lengths []int       // distinct clique lengths in the corpus, ascending
	betaPow []float64   // [W] β^W, refreshed per sweep
	aprod   [][]float64 // [W][k] Π_{j<W} (α_k+j), refreshed per sweep
	smooth  []float64   // [W] smoothing-bucket mass S_W (0 for absent W)
	term    [][]float64 // [W][k] the term of k folded into smooth[W]
	invden  []float64   // [k] 1/(Σβ+N_k), patched on every count change
	nkLog   []int32     // journal of topics whose N_k changed this sweep
	cursor  []int       // [W] nkLog prefix already folded into smooth[W]

	// Per-document state, rebuilt by startDoc in O(K).
	ndkRow    []int32   // current doc's count row
	qcoef     []float64 // [k] (α_k + N_dk) / (Σβ + N_k)
	docR      float64   // document-bucket mass (unigram cliques)
	docTopics []int32   // topics with N_dk > 0
	docPos    []int32   // [k] index into docTopics, or -1

	// Draw scratch.
	words   [][]uint64 // per-word topic lists of the clique at hand
	cand    []int32
	cw      []float64
	weights []float64 // [k] dense fallback weights
	mark    []int64   // [k] stamp marks
	stamp   int64
}

// cliqueLengths returns the distinct clique lengths in docs, ascending.
func cliqueLengths(docs []Doc) []int {
	seen := make(map[int]bool)
	for d := range docs {
		for _, c := range docs[d].Cliques {
			seen[len(c)] = true
		}
	}
	var lengths []int
	for l := range seen {
		lengths = append(lengths, l)
	}
	slices.Sort(lengths)
	return lengths
}

func newBuckets(k int, lengths []int) buckets {
	b := buckets{
		k:       k,
		lengths: lengths,
		qcoef:   make([]float64, k),
		invden:  make([]float64, k),
		docPos:  make([]int32, k),
		mark:    make([]int64, k),
	}
	maxW := 0
	if n := len(lengths); n > 0 {
		maxW = lengths[n-1]
	}
	b.smooth = make([]float64, maxW+1)
	b.betaPow = make([]float64, maxW+1)
	b.aprod = make([][]float64, maxW+1)
	b.term = make([][]float64, maxW+1)
	b.cursor = make([]int, maxW+1)
	for _, l := range lengths {
		b.aprod[l] = make([]float64, k)
		b.term[l] = make([]float64, k)
	}
	return b
}

// sparseSampler is the serial sampler: buckets over the live counts
// plus the word-topic index. It lives on the Model but is rebuilt on
// demand; paths that bulk-edit Nwk either keep the lists of the rows
// they touch current (parallel reconcile, distributed folds and row
// installs) or invalidate it wholesale.
type sparseSampler struct {
	buckets
	m     *Model
	valid bool       // wt mirrors Nwk
	wt    [][]uint64 // per word: packed (count<<32 | topic), count-descending
	rows  [][]int32  // live count rows of the clique at hand
}

// ensureSparse returns a sampler whose word-topic index is in sync
// with the count matrices, building whatever is stale.
func (m *Model) ensureSparse() *sparseSampler {
	if m.sp == nil {
		m.sp = &sparseSampler{m: m, buckets: newBuckets(m.K, cliqueLengths(m.Docs))}
	}
	if !m.sp.valid {
		m.sp.buildWordLists()
	}
	return m.sp
}

// invalidateSparse marks the word-topic index stale; any path that
// mutates Nwk without maintaining the index must call it.
func (m *Model) invalidateSparse() {
	if m.sp != nil {
		m.sp.valid = false
	}
}

// buildWordLists materialises the packed per-word nonzero topic lists
// from the count matrix: one O(V·K) scan, paid only after the index
// was invalidated (first sparse sweep, or after a dense sweep).
func (sp *sparseSampler) buildWordLists() {
	m := sp.m
	if sp.wt == nil {
		sp.wt = make([][]uint64, m.V)
	}
	for w := 0; w < m.V; w++ {
		sp.refreshWord(int32(w))
	}
	sp.valid = true
}

// refreshWord rebuilds word w's list from its count row, whatever the
// list held before: the listed topics are recounted in place and the
// row is scanned for new ones.
func (sp *sparseSampler) refreshWord(w int32) {
	list := sp.recount(w)
	st := sp.stamp
	for k, c := range sp.m.nwkRow(w) {
		if c > 0 && sp.mark[k] != st {
			list = append(list, uint64(c)<<32|uint64(k))
		}
	}
	sp.wt[w] = sortPacked(list)
}

// recount rewrites word w's listed entries with the current counts,
// dropping duplicates and zeros. Every listed topic is left marked
// with the current stamp, sp.stamp.
func (sp *sparseSampler) recount(w int32) []uint64 {
	row := sp.m.nwkRow(w)
	list := sp.wt[w]
	sp.stamp++
	st := sp.stamp
	n := 0
	for _, e := range list {
		k := uint32(e)
		if sp.mark[k] == st {
			continue
		}
		sp.mark[k] = st
		if c := row[k]; c > 0 {
			list[n] = uint64(c)<<32 | uint64(k)
			n++
		}
	}
	return list[:n]
}

// sortPacked orders a packed list descending — descending count, so
// frequent topics come first and bucket walks exit early. Topics are
// unique within a list, so the order is a pure function of the counts
// however the list was assembled.
func sortPacked(list []uint64) []uint64 {
	slices.Sort(list)
	slices.Reverse(list)
	return list
}

// checkWordLists verifies the packed index against the count matrix;
// used by Model.CheckInvariants.
func (sp *sparseSampler) checkWordLists() error {
	m := sp.m
	for w := 0; w < m.V; w++ {
		row := m.nwkRow(int32(w))
		nnz := 0
		for _, c := range row {
			if c > 0 {
				nnz++
			}
		}
		if nnz != len(sp.wt[w]) {
			return fmt.Errorf("sparse index: word %d has %d entries, counts say %d", w, len(sp.wt[w]), nnz)
		}
		for _, e := range sp.wt[w] {
			k := uint32(e)
			if int(k) >= m.K || row[k] != int32(e>>32) {
				return fmt.Errorf("sparse index: word %d topic %d listed as %d, counts say %d",
					w, k, e>>32, row[k])
			}
		}
	}
	return nil
}

// reset recomputes every maintained mass from the given totals and
// priors — run at each sweep start so hyperparameter updates and
// within-sweep floating-point drift never outlive a sweep. nk is
// retained: the caller patches it as counts move and reports each
// change through moveTopic.
func (b *buckets) reset(alpha []float64, beta, betaSum float64, nk []int64) {
	b.alpha, b.beta, b.betaSum, b.nk = alpha, beta, betaSum, nk
	for k := 0; k < b.k; k++ {
		b.invden[k] = 1 / (betaSum + float64(nk[k]))
	}
	b.nkLog = b.nkLog[:0]
	for _, W := range b.lengths {
		bp := 1.0
		for j := 0; j < W; j++ {
			bp *= beta
		}
		b.betaPow[W] = bp
		ap := b.aprod[W]
		for k := 0; k < b.k; k++ {
			a := 1.0
			for j := 0; j < W; j++ {
				a *= alpha[k] + float64(j)
			}
			ap[k] = a
		}
		b.recomputeSmooth(W)
	}
}

// refresh resets the serial sampler's masses from the live counts.
func (sp *sparseSampler) refresh() {
	m := sp.m
	sp.reset(m.Alpha, m.Beta, m.BetaSum, m.Nk)
}

// recomputeSmooth rebuilds S_W and its per-topic terms from scratch
// and marks the whole journal as seen by length W.
func (b *buckets) recomputeSmooth(W int) {
	ap, bp, tm := b.aprod[W], b.betaPow[W], b.term[W]
	total := 0.0
	if W == 1 {
		for k := 0; k < b.k; k++ {
			t := ap[k] * bp * b.invden[k]
			tm[k] = t
			total += t
		}
	} else {
		for k := 0; k < b.k; k++ {
			t := ap[k] * bp / denProd(b.betaSum+float64(b.nk[k]), W)
			tm[k] = t
			total += t
		}
	}
	b.smooth[W] = total
	b.cursor[W] = len(b.nkLog)
}

// catchUp folds every journaled N_k change that length W has not seen
// into S_W. Replay cost is the backlog length with an O(K) full
// recompute cap, so a sweep's total catch-up work is bounded by
// O(changes × lengths) no matter how draws interleave.
func (b *buckets) catchUp(W int) {
	cur := b.cursor[W]
	if cur == len(b.nkLog) {
		return
	}
	if len(b.nkLog)-cur >= b.k {
		b.recomputeSmooth(W)
		return
	}
	ap, bp, tm := b.aprod[W], b.betaPow[W], b.term[W]
	s := b.smooth[W]
	if W == 1 {
		for _, k := range b.nkLog[cur:] {
			t := ap[k] * bp * b.invden[k]
			s += t - tm[k]
			tm[k] = t
		}
	} else {
		for _, k := range b.nkLog[cur:] {
			t := ap[k] * bp / denProd(b.betaSum+float64(b.nk[k]), W)
			s += t - tm[k]
			tm[k] = t
		}
	}
	b.smooth[W] = s
	b.cursor[W] = len(b.nkLog)
}

// denProd returns Π_{j<W} (den + j), the denominator chain of Eq. 7.
func denProd(den float64, W int) float64 {
	p := den
	for j := 1; j < W; j++ {
		p *= den + float64(j)
	}
	return p
}

// sweepSparse is Model.Sweep's default implementation.
func (m *Model) sweepSparse() {
	sp := m.ensureSparse()
	sp.refresh()
	for d := range m.Docs {
		if len(m.Docs[d].Cliques) == 0 {
			continue
		}
		sp.beginDoc(d)
		for g := range m.Docs[d].Cliques {
			sp.sample(d, g)
		}
	}
}

// startDoc rebuilds the per-document state in O(K), amortised over
// the document's cliques.
func (b *buckets) startDoc(ndk []int32) {
	b.ndkRow = ndk
	b.docTopics = b.docTopics[:0]
	r := 0.0
	for k := 0; k < b.k; k++ {
		inv := b.invden[k]
		n := ndk[k]
		b.qcoef[k] = (b.alpha[k] + float64(n)) * inv
		b.docPos[k] = -1
		if n > 0 {
			b.docPos[k] = int32(len(b.docTopics))
			b.docTopics = append(b.docTopics, int32(k))
			r += float64(n) * b.beta * inv
		}
	}
	b.docR = r
}

func (sp *sparseSampler) beginDoc(d int) { sp.startDoc(sp.m.ndkRow(d)) }

// sample resamples clique g of the current document d.
func (sp *sparseSampler) sample(d, g int) {
	m := sp.m
	clique := m.Docs[d].Cliques[g]
	old := m.Z[d][g]
	sp.apply(clique, old, -1)
	var k int32
	var ok bool
	if len(clique) == 1 {
		k, ok = sp.drawUnigram(sp.wt[clique[0]], m.rng)
	} else {
		k, ok = sp.drawPhrase(sp.cliqueLists(clique), sp.cliqueRows(clique), m.rng)
	}
	if !ok {
		k = sp.denseDraw(sp.cliqueRows(clique), m.rng)
	}
	m.Z[d][g] = k
	sp.apply(clique, k, 1)
}

// cliqueLists returns the index lists of the clique's words.
func (sp *sparseSampler) cliqueLists(clique []int32) [][]uint64 {
	words := sp.words[:0]
	for _, w := range clique {
		words = append(words, sp.wt[w])
	}
	sp.words = words
	return words
}

// cliqueRows returns the live count rows of the clique's words.
func (sp *sparseSampler) cliqueRows(clique []int32) [][]int32 {
	rows := sp.rows[:0]
	for _, w := range clique {
		rows = append(rows, sp.m.nwkRow(w))
	}
	sp.rows = rows
	return rows
}

// apply adds (sign=+1) or removes (sign=-1) a clique's counts for
// topic k in the current document, patching the count matrices and
// the word-topic index, then the buckets (moveTopic). Cost: O(W) plus
// one division.
func (sp *sparseSampler) apply(clique []int32, k int32, sign int32) {
	m := sp.m
	ki := int(k)
	w := int32(len(clique))
	oldNdk := sp.ndkRow[ki]
	newNdk := oldNdk + sign*w

	sp.ndkRow[ki] = newNdk
	m.Nk[ki] += int64(sign) * int64(w)
	if sign > 0 {
		for _, word := range clique {
			m.nwkRow(word)[ki]++
			sp.wt[word] = wtInc(sp.wt[word], uint32(k))
		}
	} else {
		for _, word := range clique {
			m.nwkRow(word)[ki]--
			sp.wt[word] = wtDec(sp.wt[word], uint32(k))
		}
	}
	sp.moveTopic(k, oldNdk, newNdk)
}

// moveTopic patches the buckets after the caller moved N_dk of topic k
// from oldNdk to newNdk and updated nk[k] to match: the document topic
// list, the reciprocal denominator, the document bucket and the
// q-coefficient of k, journaling the N_k change for the lazily
// maintained smoothing masses.
func (b *buckets) moveTopic(k int32, oldNdk, newNdk int32) {
	ki := int(k)
	switch {
	case oldNdk == 0 && newNdk > 0:
		b.docPos[ki] = int32(len(b.docTopics))
		b.docTopics = append(b.docTopics, k)
	case oldNdk > 0 && newNdk == 0:
		pos := b.docPos[ki]
		last := int32(len(b.docTopics) - 1)
		moved := b.docTopics[last]
		b.docTopics[pos] = moved
		b.docPos[moved] = pos
		b.docTopics = b.docTopics[:last]
		b.docPos[ki] = -1
	}

	oldInv := b.invden[ki]
	newInv := 1 / (b.betaSum + float64(b.nk[ki]))
	b.invden[ki] = newInv
	b.nkLog = append(b.nkLog, k)
	if len(b.nkLog) >= 4*b.k {
		b.compactLog()
	}
	b.docR += float64(newNdk)*b.beta*newInv - float64(oldNdk)*b.beta*oldInv
	b.qcoef[ki] = (b.alpha[ki] + float64(newNdk)) * newInv
}

// compactLog bounds the journal: entries more than K behind every
// cursor can never be replayed (catchUp recomputes from scratch at
// that backlog), so once the log reaches a few K the lengths are all
// folded up to date and the log reset. This keeps the journal O(K)
// for the model's lifetime instead of O(cliques) per sweep, at an
// amortised O(#lengths) cost per draw.
func (b *buckets) compactLog() {
	for _, W := range b.lengths {
		b.catchUp(W)
	}
	b.nkLog = b.nkLog[:0]
	for _, W := range b.lengths {
		b.cursor[W] = 0
	}
}

// badMass reports a bucket total that cannot drive a draw; the
// samplers then fall back to their exact dense path.
func badMass(total float64) bool {
	return !(total > 0) || math.IsInf(total, 1) || math.IsNaN(total)
}

// drawUnigram draws from the three-bucket decomposition of the W=1
// conditional, given the word's packed nonzero topic list. Cost:
// O(K_w) for the word-bucket mass plus the walk of whichever bucket
// the uniform lands in; the O(K) smoothing walk is hit with
// probability s/(s+r+q), which is tiny on trained models. ok is false,
// with no RNG draw consumed, when the total mass is degenerate.
func (b *buckets) drawUnigram(list []uint64, rng *xrand.RNG) (int32, bool) {
	b.catchUp(1)
	var q float64
	for _, e := range list {
		q += float64(e>>32) * b.qcoef[uint32(e)]
	}
	total := q + b.docR + b.smooth[1]
	if badMass(total) {
		return 0, false
	}
	u := rng.Float64() * total
	if u < q {
		for _, e := range list {
			u -= float64(e>>32) * b.qcoef[uint32(e)]
			if u < 0 {
				return int32(uint32(e)), true
			}
		}
		return int32(uint32(list[len(list)-1])), true // float slack
	}
	u -= q
	if u < b.docR && len(b.docTopics) > 0 {
		for _, k := range b.docTopics {
			u -= float64(b.ndkRow[k]) * b.beta * b.invden[k]
			if u < 0 {
				return k, true
			}
		}
		return b.docTopics[len(b.docTopics)-1], true // float slack
	}
	u -= b.docR
	tm := b.term[1]
	for k := 0; k < b.k; k++ {
		u -= tm[k]
		if u < 0 {
			return int32(k), true
		}
	}
	return int32(b.k - 1), true // float slack: every topic has smoothing mass
}

// drawPhrase draws a W>1 clique's topic given each clique word's
// packed nonzero topic list and its K-stride count row: the exact
// Eq. 7 product on the candidate topics (document nonzeros ∪ each
// word's nonzeros), the caught-up smoothing mass S_W for everything
// else. The serial sampler passes its live count rows; a worker, which
// keeps no dense rows, passes its lists scattered into scratch rows.
// ok is false, with no RNG draw consumed, when the total mass is
// degenerate.
func (b *buckets) drawPhrase(lists [][]uint64, rows [][]int32, rng *xrand.RNG) (int32, bool) {
	W := len(lists)
	b.catchUp(W)
	b.stamp++
	st := b.stamp
	cand := append(b.cand[:0], b.docTopics...)
	for _, k := range cand {
		b.mark[k] = st
	}
	for _, list := range lists {
		for _, e := range list {
			if k := uint32(e); b.mark[k] != st {
				b.mark[k] = st
				cand = append(cand, int32(k))
			}
		}
	}
	b.cand = cand

	tm := b.term[W]
	cw := b.cw[:0]
	var psum, corr float64
	for _, k := range cand {
		akn := b.alpha[k] + float64(b.ndkRow[k])
		den := b.betaSum + float64(b.nk[k])
		p := 1.0
		for j, row := range rows {
			fj := float64(j)
			p *= (akn + fj) * (b.beta + float64(row[k])) / (den + fj)
		}
		cw = append(cw, p)
		psum += p
		corr += tm[k]
	}
	b.cw = cw

	rest := b.smooth[W] - corr
	if rest < 0 {
		rest = 0 // candidates held the entire maintained mass; drift guard
	}
	total := psum + rest
	if badMass(total) {
		return 0, false
	}
	u := rng.Float64() * total
	if u < psum {
		for i, p := range cw {
			u -= p
			if u < 0 {
				return cand[i], true
			}
		}
		return cand[len(cand)-1], true // float slack
	}
	u -= psum
	for k := 0; k < b.k; k++ {
		if b.mark[k] == st {
			continue
		}
		u -= tm[k]
		if u < 0 {
			return int32(k), true
		}
	}
	for k := b.k - 1; k >= 0; k-- { // float slack: last non-candidate
		if b.mark[k] != st {
			return int32(k), true
		}
	}
	return cand[len(cand)-1], true // every topic was a candidate
}

// denseDraw is the exact fallback: the full O(K) Eq. 7 conditional of
// the (already removed) clique in the current document, given its
// words' count rows. It is reached only when the maintained masses
// cannot produce a positive finite total — degenerate priors, drift at
// the edge of float range.
func (b *buckets) denseDraw(rows [][]int32, rng *xrand.RNG) int32 {
	if b.weights == nil {
		b.weights = make([]float64, b.k)
	}
	for k := 0; k < b.k; k++ {
		akn := b.alpha[k] + float64(b.ndkRow[k])
		den := b.betaSum + float64(b.nk[k])
		p := 1.0
		for j, row := range rows {
			fj := float64(j)
			p *= (akn + fj) * (b.beta + float64(row[k])) / (den + fj)
		}
		b.weights[k] = p
	}
	return int32(rng.Categorical(b.weights))
}

// wtInc bumps topic k in a packed word-topic list, inserting it at
// count 1 if absent, and restores decreasing-count order by bubbling
// the entry left past its equals — O(distance moved), usually O(1).
func wtInc(list []uint64, k uint32) []uint64 {
	for i, e := range list {
		if uint32(e) == k {
			e += 1 << 32
			for i > 0 && list[i-1] < e {
				list[i] = list[i-1]
				i--
			}
			list[i] = e
			return list
		}
	}
	return append(list, 1<<32|uint64(k))
}

// wtDec decrements topic k, dropping the entry when its count reaches
// zero (swap-with-last: the tail of the list holds the minimal
// counts) and bubbling right otherwise.
func wtDec(list []uint64, k uint32) []uint64 {
	for i, e := range list {
		if uint32(e) == k {
			if e>>32 <= 1 {
				last := len(list) - 1
				list[i] = list[last]
				return list[:last]
			}
			e -= 1 << 32
			for i < len(list)-1 && list[i+1] > e {
				list[i] = list[i+1]
				i++
			}
			list[i] = e
			return list
		}
	}
	panic("topicmodel: word-topic index out of sync with counts")
}
