package topicmodel

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Distributed AD-LDA support: the pieces of the sweep barrier that
// cross process boundaries. A coordinator holds the full model and
// drives the schedule exactly like SweepParallel — one RNG base draw
// per sweep (NextSweepBase), token-balanced shard ranges
// (ShardRanges), a fold of every worker's sparse N_wk delta
// (FoldShardDeltas) — while each worker holds a shard model
// (NewShardModel) whose document state covers only its range but whose
// word-topic counts are the globals frozen at the last barrier. Its
// sweep (ShardSweep) is the same sparse bucketed worker draw as an
// in-process SweepParallel goroutine's. Because every input to that
// draw (frozen globals and their word-topic index, private delta,
// document counts, RNG stream) is bit-identical to what the
// corresponding in-process worker would see — both sides refresh the
// index to the same post-fold rows, and a list's order is a pure
// function of its counts — the trained model, and therefore its
// rendered topics, is byte-identical to an in-process run with the
// same topology (worker count, ranges, seed).
//
// The wire unit is CountRows: a sparse set of K-stride word rows plus
// the K topic totals. Uploaded by a worker it carries the shard's
// sweep delta; rebroadcast by the coordinator it carries the updated
// values of every row touched this sweep (workers overwrite rather
// than re-apply, so the two sides cannot drift).

// CountRows is a sparse set of word-topic count rows plus topic
// totals, the payload exchanged at each distributed sweep barrier.
// Rows may alias internal model buffers; treat as read-only and
// consume before the next sweep.
type CountRows struct {
	K     int
	Words []int32
	Rows  [][]int32
	Nk    []int64
}

// AppendTo appends the little-endian wire encoding of cr to buf:
//
//	u32 nrows | u32 K | nrows × { u32 word | K × i32 } | K × i64
//
// The barrier payloads are megabytes at realistic V and K, so the
// buffer grows once to the encoded size.
func (cr *CountRows) AppendTo(buf []byte) []byte {
	n := 8 + 8*len(cr.Nk)
	for _, row := range cr.Rows {
		n += 4 + 4*len(row)
	}
	off := len(buf)
	buf = slices.Grow(buf, n)[:off+n]
	b := buf[off:]
	le := binary.LittleEndian
	le.PutUint32(b, uint32(len(cr.Words)))
	le.PutUint32(b[4:], uint32(cr.K))
	b = b[8:]
	for i, w := range cr.Words {
		le.PutUint32(b, uint32(w))
		b = b[4:]
		for _, v := range cr.Rows[i] {
			le.PutUint32(b, uint32(v))
			b = b[4:]
		}
	}
	for _, v := range cr.Nk {
		le.PutUint64(b, uint64(v))
		b = b[8:]
	}
	return buf
}

// DecodeCountRows decodes one CountRows from data, validating shape
// against the expected vocabulary size v and topic count k. It returns
// the decoded value and the number of bytes consumed; the returned
// slices point into freshly allocated memory, not into data.
func DecodeCountRows(data []byte, v, k int) (*CountRows, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("topicmodel: count rows truncated (%d bytes)", len(data))
	}
	nrows := int(binary.LittleEndian.Uint32(data))
	gotK := int(binary.LittleEndian.Uint32(data[4:]))
	if gotK != k {
		return nil, 0, fmt.Errorf("topicmodel: count rows K=%d, want %d", gotK, k)
	}
	if nrows > v {
		return nil, 0, fmt.Errorf("topicmodel: count rows claims %d rows for vocab %d", nrows, v)
	}
	need := 8 + nrows*(4+4*k) + 8*k
	if len(data) < need {
		return nil, 0, fmt.Errorf("topicmodel: count rows truncated: %d bytes, need %d", len(data), need)
	}
	cr := &CountRows{
		K:     k,
		Words: make([]int32, nrows),
		Rows:  make([][]int32, nrows),
		Nk:    make([]int64, k),
	}
	off := 8
	arena := make([]int32, nrows*k)
	for i := 0; i < nrows; i++ {
		w := binary.LittleEndian.Uint32(data[off:])
		if int(w) >= v {
			return nil, 0, fmt.Errorf("topicmodel: count row word %d out of vocab %d", w, v)
		}
		cr.Words[i] = int32(w)
		off += 4
		row := arena[i*k : (i+1)*k : (i+1)*k]
		for j := 0; j < k; j++ {
			row[j] = int32(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		cr.Rows[i] = row
	}
	for j := 0; j < k; j++ {
		cr.Nk[j] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return cr, off, nil
}

// NewShardModel builds a worker-side model over one shard's documents:
// document state (Z, Ndk, Nd) is local to the shard, while the
// word-topic counts (nwk arena, nk) are the coordinator-broadcast
// globals — which include every other shard's tokens, so the usual
// count invariants deliberately do not hold on a shard model. z rows
// are adopted (not copied); nwk must have vocabSize×k entries and is
// adopted as the count arena.
func NewShardModel(docs []Doc, vocabSize, k int, alpha []float64, alphaSum, beta float64, z [][]int32, nwk []int32, nk []int64) (*Model, error) {
	if k <= 0 || vocabSize <= 0 {
		return nil, fmt.Errorf("topicmodel: shard model needs positive K and V, got K=%d V=%d", k, vocabSize)
	}
	if len(alpha) != k {
		return nil, fmt.Errorf("topicmodel: shard alpha has %d entries, want %d", len(alpha), k)
	}
	if len(z) != len(docs) {
		return nil, fmt.Errorf("topicmodel: shard has %d z rows for %d docs", len(z), len(docs))
	}
	if len(nwk) != vocabSize*k {
		return nil, fmt.Errorf("topicmodel: shard nwk arena has %d entries, want %d", len(nwk), vocabSize*k)
	}
	if len(nk) != k {
		return nil, fmt.Errorf("topicmodel: shard nk has %d entries, want %d", len(nk), k)
	}
	m := &Model{
		K:        k,
		V:        vocabSize,
		Alpha:    alpha,
		AlphaSum: alphaSum,
		Beta:     beta,
		BetaSum:  beta * float64(vocabSize),
		Docs:     docs,
		Z:        z,
		Nk:       nk,
		nwk:      nwk,
		weights:  make([]float64, k),
	}
	m.Nwk = make([][]int32, vocabSize)
	for w := range m.Nwk {
		m.Nwk[w] = nwk[w*k : (w+1)*k : (w+1)*k]
	}
	m.ndk = make([]int32, len(docs)*k)
	m.Ndk = make([][]int32, len(docs))
	m.Nd = make([]int32, len(docs))
	for d := range docs {
		m.Ndk[d] = m.ndk[d*k : (d+1)*k : (d+1)*k]
		row := m.Ndk[d]
		if len(z[d]) != len(docs[d].Cliques) {
			return nil, fmt.Errorf("topicmodel: shard doc %d has %d assignments for %d cliques", d, len(z[d]), len(docs[d].Cliques))
		}
		for g, clique := range docs[d].Cliques {
			zk := z[d][g]
			if zk < 0 || int(zk) >= k {
				return nil, fmt.Errorf("topicmodel: shard doc %d clique %d: topic %d out of range", d, g, zk)
			}
			row[zk] += int32(len(clique))
			m.Nd[d] += int32(len(clique))
		}
	}
	return m, nil
}

// SetPriors installs coordinator-broadcast prior values before a
// sweep. Sums are taken from the wire rather than recomputed so the
// float bits match the coordinator's exactly.
func (m *Model) SetPriors(alpha []float64, alphaSum, beta, betaSum float64) error {
	if len(alpha) != m.K {
		return fmt.Errorf("topicmodel: priors have %d alphas, want %d", len(alpha), m.K)
	}
	copy(m.Alpha, alpha)
	m.AlphaSum = alphaSum
	m.Beta = beta
	m.BetaSum = betaSum
	return nil
}

// ShardSweep runs one sweep of this (shard) model as distributed
// worker workerIndex: the same RNG stream, visit order and sparse
// bucketed draw as the corresponding SweepParallel goroutine, against
// the globals installed at the last barrier. It returns the shard's
// sparse N_wk delta; the rows alias reusable worker buffers, so the
// caller must encode (or copy) the delta and then call
// ResetShardDelta before the next sweep.
func (m *Model) ShardSweep(workerIndex int, base uint64) *CountRows {
	wt := m.ensureSparse().wt
	ws := m.ensurePar(1).workers[0]
	m.sweepShard(ws, wt, 0, len(m.Docs), base+uint64(workerIndex)*workerSeedStride)
	return &CountRows{K: m.K, Words: ws.touched, Rows: ws.deltaRows(), Nk: ws.dnk}
}

// ResetShardDelta zeroes the worker delta produced by the last
// ShardSweep without applying it — the coordinator owns the fold; the
// worker instead receives the folded row values back via
// SetGlobalRows.
func (m *Model) ResetShardDelta() {
	if m.par == nil || len(m.par.workers) != 1 {
		return
	}
	ws := m.par.workers[0]
	for _, w := range ws.touched {
		ws.slotOf[w] = -1
	}
	ws.touched = ws.touched[:0]
	clear(ws.dnk)
}

// foldState is the reusable scratch for folding worker deltas (the
// coordinator's FoldShardDeltas, the in-process reconcile): an O(V)
// index of rows touched in the current fold plus the touch order,
// mirroring parWorker's sparse-delta bookkeeping.
type foldState struct {
	rowOf []int32 // [V], -1 = untouched this fold
	words []int32 // touched words in first-touch order
}

// foldScratch returns the model's fold scratch, emptied.
func (m *Model) foldScratch() *foldState {
	if m.fold == nil || len(m.fold.rowOf) != m.V {
		f := &foldState{rowOf: make([]int32, m.V)}
		for w := range f.rowOf {
			f.rowOf[w] = -1
		}
		m.fold = f
	}
	f := m.fold
	for _, w := range f.words {
		f.rowOf[w] = -1
	}
	f.words = f.words[:0]
	return f
}

// add records word w as touched by the current fold.
func (f *foldState) add(w int32) {
	if f.rowOf[w] < 0 {
		f.rowOf[w] = int32(len(f.words))
		f.words = append(f.words, w)
	}
}

// FoldShardDeltas applies every worker's sweep delta to the global
// counts — the distributed form of SweepParallel's reconcile — and
// returns the rebroadcast payload: the post-fold values of every row
// touched this sweep plus the full topic totals. The returned rows
// alias the model's count arena and its Nk slice; they are valid until
// the next mutation of the model. Folding is integer addition, so the
// result is independent of delta order.
func (m *Model) FoldShardDeltas(deltas []*CountRows) (*CountRows, error) {
	f := m.foldScratch()
	for di, cr := range deltas {
		if cr.K != m.K {
			return nil, fmt.Errorf("topicmodel: delta %d has K=%d, want %d", di, cr.K, m.K)
		}
		if len(cr.Nk) != m.K {
			return nil, fmt.Errorf("topicmodel: delta %d has %d topic totals, want %d", di, len(cr.Nk), m.K)
		}
		for i, w := range cr.Words {
			if w < 0 || int(w) >= m.V {
				return nil, fmt.Errorf("topicmodel: delta %d touches word %d outside vocab %d", di, w, m.V)
			}
			f.add(w)
			dst := m.nwkRow(w)
			for k, v := range cr.Rows[i] {
				dst[k] += v
			}
		}
		for k, v := range cr.Nk {
			m.Nk[k] += v
		}
	}
	// A negative count can only come from a corrupted or mismatched
	// delta; catch it at the barrier instead of training on garbage.
	out := &CountRows{K: m.K, Words: f.words, Rows: make([][]int32, len(f.words)), Nk: m.Nk}
	for i, w := range f.words {
		row := m.nwkRow(w)
		for k, v := range row {
			if v < 0 {
				m.invalidateSparse()
				return nil, fmt.Errorf("topicmodel: fold drove Nwk[%d][%d] negative (%d)", w, k, v)
			}
		}
		out.Rows[i] = row
	}
	for k, v := range m.Nk {
		if v < 0 {
			m.invalidateSparse()
			return nil, fmt.Errorf("topicmodel: fold drove Nk[%d] negative (%d)", k, v)
		}
	}
	m.refreshWordRows(f.words)
	return out, nil
}

// SetGlobalRows overwrites the model's word-topic counts with
// coordinator-broadcast post-fold values: the listed rows wholesale
// plus the full topic-total vector. Workers call this after each
// barrier; untouched rows are already equal on both sides.
func (m *Model) SetGlobalRows(cr *CountRows) error {
	if cr.K != m.K {
		return fmt.Errorf("topicmodel: global rows have K=%d, want %d", cr.K, m.K)
	}
	if len(cr.Nk) != m.K {
		return fmt.Errorf("topicmodel: global rows have %d topic totals, want %d", len(cr.Nk), m.K)
	}
	for _, w := range cr.Words {
		if w < 0 || int(w) >= m.V {
			return fmt.Errorf("topicmodel: global row word %d outside vocab %d", w, m.V)
		}
	}
	for i, w := range cr.Words {
		copy(m.nwkRow(w), cr.Rows[i])
	}
	copy(m.Nk, cr.Nk)
	m.refreshWordRows(cr.Words)
	return nil
}

// InstallShardState copies a shard's final topic assignments back into
// the full model (docs [lo, lo+len(z))) after the last distributed
// sweep, recomputing the affected document-topic rows from the
// assignments rather than trusting them off the wire.
func (m *Model) InstallShardState(lo int, z [][]int32) error {
	if lo < 0 || lo+len(z) > len(m.Docs) {
		return fmt.Errorf("topicmodel: shard state [%d, %d) outside %d docs", lo, lo+len(z), len(m.Docs))
	}
	for i, zr := range z {
		d := lo + i
		if len(zr) != len(m.Docs[d].Cliques) {
			return fmt.Errorf("topicmodel: shard doc %d has %d assignments for %d cliques", d, len(zr), len(m.Docs[d].Cliques))
		}
		row := m.ndkRow(d)
		for k := range row {
			row[k] = 0
		}
		for g, k := range zr {
			if k < 0 || int(k) >= m.K {
				return fmt.Errorf("topicmodel: shard doc %d clique %d: topic %d out of range", d, g, k)
			}
			row[k] += int32(len(m.Docs[d].Cliques[g]))
		}
		copy(m.Z[d], zr)
	}
	m.invalidateSparse()
	return nil
}

// DocsChecksum returns a CRC over the clique structure of docs — word
// ids and clique boundaries, not document IDs — so a distributed
// worker can verify the shard it rebuilt from the corpus file against
// the coordinator's before training on it.
func DocsChecksum(docs []Doc) uint32 {
	crc := crc32.NewIEEE()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		crc.Write(buf[:])
	}
	for i := range docs {
		put(uint32(len(docs[i].Cliques)))
		for _, clique := range docs[i].Cliques {
			put(uint32(len(clique)))
			for _, w := range clique {
				put(uint32(w))
			}
		}
	}
	return crc.Sum32()
}
