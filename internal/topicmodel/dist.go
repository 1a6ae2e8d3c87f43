package topicmodel

import (
	"encoding/binary"
	"errors"
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
// corresponding in-process worker would see — both sides set the
// index to the same post-fold rows, and a list's order is a pure
// function of its counts — the trained model, and therefore its
// rendered topics, is byte-identical to an in-process run with the
// same topology (worker count, ranges, seed).
//
// The wire unit is CountRows: sparse word rows in the word-topic
// index's packed (count, topic) layout, plus the K topic totals, so a
// barrier moves O(nnz) bytes, not O(rows × K). Uploaded by a worker it
// carries the shard's sweep delta (signed counts); rebroadcast by the
// coordinator it carries the post-fold positive entries of every row
// touched this sweep, and at setup the whole model (positive counts).
// Workers overwrite rather than re-apply, so the two sides cannot
// drift.

// CountRows is a sparse set of word-topic count rows plus topic
// totals, the payload exchanged at each distributed sweep barrier.
// Lists[i] holds word Words[i]'s nonzero entries, each packed as
// uint32(count)<<32 | topic — the word-topic index layout, with
// negative counts allowed in deltas. Lists may alias internal model
// buffers; treat as read-only and consume before the next sweep.
type CountRows struct {
	K     int
	Words []int32
	Lists [][]uint64
	Nk    []int64
}

// packCount packs a (topic, signed count) entry of a CountRows list.
func packCount(k uint32, c int32) uint64 { return uint64(uint32(c))<<32 | uint64(k) }

// Named CountRows failures: decoding untrusted bytes
// (DecodeCountRows) and installing rows (FoldShardDeltas,
// SetGlobalRows) return one of these, wrapped with the offending
// word, topic or size.
var (
	ErrCountRowsTruncated   = errors.New("topicmodel: count rows truncated")
	ErrCountRowsTrailing    = errors.New("topicmodel: trailing bytes after count rows")
	ErrCountRowsShape       = errors.New("topicmodel: count rows shape mismatch")
	ErrCountRowsWord        = errors.New("topicmodel: count row word outside vocabulary")
	ErrCountRowsDupWord     = errors.New("topicmodel: duplicate word in count rows")
	ErrCountRowsTooLong     = errors.New("topicmodel: count row has more than K entries")
	ErrCountRowsTopic       = errors.New("topicmodel: count row topic out of range")
	ErrCountRowsZero        = errors.New("topicmodel: zero count in count row")
	ErrCountRowsDupTopic    = errors.New("topicmodel: duplicate topic in count row")
	ErrCountRowsNonPositive = errors.New("topicmodel: non-positive count in global rows")
)

// AppendTo appends the little-endian wire encoding of cr to buf:
//
//	u32 nrows | u32 K | nrows × { u32 word | u32 n | n × u64 entry } | K × i64
//
// Each entry is a list's packed uint32(count)<<32 | topic as is. The
// buffer grows once to the encoded size.
func (cr *CountRows) AppendTo(buf []byte) []byte {
	n := 8 + 8*len(cr.Nk) + 8*len(cr.Words)
	for _, list := range cr.Lists {
		n += 8 * len(list)
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
		le.PutUint32(b[4:], uint32(len(cr.Lists[i])))
		b = b[8:]
		for _, e := range cr.Lists[i] {
			le.PutUint64(b, e)
			b = b[8:]
		}
	}
	for _, v := range cr.Nk {
		le.PutUint64(b, uint64(v))
		b = b[8:]
	}
	return buf
}

// DecodeCountRows decodes data, which must hold exactly one CountRows
// encoding, for a model of vocabulary size v and k topics. The rows
// must be well-formed deltas — unique in-vocabulary words, at most k
// entries a row, unique in-range topics, nonzero counts — and each
// violation is a named ErrCountRows* error; that counts are positive
// is for SetGlobalRows to require. Allocation is bounded by len(data)
// (plus O(v + k) validation scratch), whatever sizes the payload
// claims: the structure is walked first and the result allocated at
// its exact size. The returned slices point into fresh memory, not
// into data.
func DecodeCountRows(data []byte, v, k int) (*CountRows, error) {
	le := binary.LittleEndian
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCountRowsTruncated, len(data))
	}
	nrows, gotK := int(le.Uint32(data)), int(le.Uint32(data[4:]))
	if gotK != k {
		return nil, fmt.Errorf("%w: K=%d, want %d", ErrCountRowsShape, gotK, k)
	}
	if nrows > v {
		return nil, fmt.Errorf("%w: %d rows for vocabulary %d", ErrCountRowsShape, nrows, v)
	}
	tail := 8 * k // the topic totals
	if len(data)-8 < tail {
		return nil, fmt.Errorf("%w: %d bytes, need %d for the topic totals", ErrCountRowsTruncated, len(data), 8+tail)
	}
	entries, off := 0, 8
	for i := 0; i < nrows; i++ {
		if len(data)-off-tail < 8 {
			return nil, fmt.Errorf("%w: row %d of %d missing", ErrCountRowsTruncated, i, nrows)
		}
		n := int(le.Uint32(data[off+4:]))
		if n > k {
			return nil, fmt.Errorf("%w: word %d has %d entries, K=%d", ErrCountRowsTooLong, le.Uint32(data[off:]), n, k)
		}
		off += 8
		if (len(data)-off-tail)/8 < n {
			return nil, fmt.Errorf("%w: row %d claims %d entries", ErrCountRowsTruncated, i, n)
		}
		off += 8 * n
		entries += n
	}
	if extra := len(data) - off - tail; extra > 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCountRowsTrailing, extra)
	}

	cr := &CountRows{
		K:     k,
		Words: make([]int32, nrows),
		Lists: make([][]uint64, nrows),
		Nk:    make([]int64, k),
	}
	arena := make([]uint64, entries)
	off = 8
	for i := range cr.Words {
		cr.Words[i] = int32(le.Uint32(data[off:]))
		n := int(le.Uint32(data[off+4:]))
		off += 8
		list := arena[:n:n]
		arena = arena[n:]
		for j := range list {
			list[j] = le.Uint64(data[off:])
			off += 8
		}
		cr.Lists[i] = list
	}
	for j := range cr.Nk {
		cr.Nk[j] = int64(le.Uint64(data[off:]))
		off += 8
	}
	if err := cr.check(v, k, false, newRowCheck(v, k)); err != nil {
		return nil, err
	}
	return cr, nil
}

// rowCheck is the scratch of CountRows.check: stamp marks over the
// vocabulary (duplicate words) and over the topics (duplicate topics
// within a row).
type rowCheck struct {
	word, topic    []uint32
	wstamp, tstamp uint32
}

func newRowCheck(v, k int) *rowCheck {
	return &rowCheck{word: make([]uint32, v), topic: make([]uint32, k)}
}

// next advances a stamp, clearing its marks when the counter wraps.
func next(marks []uint32, stamp *uint32) uint32 {
	if *stamp++; *stamp == 0 {
		clear(marks)
		*stamp = 1
	}
	return *stamp
}

// check validates cr against a model of vocabulary size v and k
// topics: matching shapes, words in the vocabulary and unique, rows of
// at most k entries with in-range, unique topics and nonzero counts.
// With positive set the rows are absolute values (ROWS, GLOBALS), so
// every count must be positive and every topic total non-negative.
func (cr *CountRows) check(v, k int, positive bool, rc *rowCheck) error {
	if cr.K != k || len(cr.Nk) != k || len(cr.Lists) != len(cr.Words) {
		return fmt.Errorf("%w: K=%d with %d totals and %d lists for %d words, want K=%d",
			ErrCountRowsShape, cr.K, len(cr.Nk), len(cr.Lists), len(cr.Words), k)
	}
	ws := next(rc.word, &rc.wstamp)
	for i, w := range cr.Words {
		if w < 0 || int(w) >= v {
			return fmt.Errorf("%w: word %d, vocabulary %d", ErrCountRowsWord, w, v)
		}
		if rc.word[w] == ws {
			return fmt.Errorf("%w: word %d", ErrCountRowsDupWord, w)
		}
		rc.word[w] = ws
		list := cr.Lists[i]
		if len(list) > k {
			return fmt.Errorf("%w: word %d has %d entries, K=%d", ErrCountRowsTooLong, w, len(list), k)
		}
		ts := next(rc.topic, &rc.tstamp)
		for _, e := range list {
			t, c := uint32(e), int32(e>>32)
			switch {
			case int64(t) >= int64(k):
				return fmt.Errorf("%w: word %d topic %d, K=%d", ErrCountRowsTopic, w, t, k)
			case c == 0:
				return fmt.Errorf("%w: word %d topic %d", ErrCountRowsZero, w, t)
			case c < 0 && positive:
				return fmt.Errorf("%w: word %d topic %d count %d", ErrCountRowsNonPositive, w, t, c)
			case rc.topic[t] == ts:
				return fmt.Errorf("%w: word %d topic %d", ErrCountRowsDupTopic, w, t)
			}
			rc.topic[t] = ts
		}
	}
	if positive {
		for t, c := range cr.Nk {
			if c < 0 {
				return fmt.Errorf("%w: topic total %d is %d", ErrCountRowsNonPositive, t, c)
			}
		}
	}
	return nil
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
// sparse N_wk delta; the lists alias reusable worker buffers, so the
// caller must encode (or copy) the delta and then call
// ResetShardDelta before the next sweep.
func (m *Model) ShardSweep(workerIndex int, base uint64) *CountRows {
	wt := m.ensureSparse().wt
	ws := m.ensurePar(1).workers[0]
	m.sweepShard(ws, wt, 0, len(m.Docs), base+uint64(workerIndex)*workerSeedStride)
	return ws.delta()
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
// mirroring parWorker's sparse-delta bookkeeping, the rebroadcast
// lists and the CountRows validation marks.
type foldState struct {
	rowOf []int32    // [V], -1 = untouched this fold
	words []int32    // touched words in first-touch order
	lists [][]uint64 // FoldShardDeltas: post-fold list of each touched word
	check *rowCheck
}

// foldScratch returns the model's fold scratch, emptied.
func (m *Model) foldScratch() *foldState {
	if m.fold == nil || len(m.fold.rowOf) != m.V {
		f := &foldState{rowOf: make([]int32, m.V), check: newRowCheck(m.V, m.K)}
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
// returns the rebroadcast payload: the post-fold positive entries of
// every row touched this sweep plus the full topic totals. The fold
// runs entry by entry and keeps the model's word-topic index current,
// so a touched row costs O(nnz), not O(K); the returned lists are that
// index's (sorted) lists and its Nk slice, valid until the next
// mutation of the model. Folding is integer addition, so the result is
// independent of delta order.
func (m *Model) FoldShardDeltas(deltas []*CountRows) (*CountRows, error) {
	sp := m.ensureSparse()
	f := m.foldScratch()
	for di, cr := range deltas {
		if err := cr.check(m.V, m.K, false, f.check); err != nil {
			return nil, fmt.Errorf("topicmodel: delta %d: %w", di, err)
		}
	}
	for _, cr := range deltas {
		for i, w := range cr.Words {
			f.add(w)
			dst := m.nwkRow(w)
			for _, e := range cr.Lists[i] {
				k := uint32(e)
				if dst[k] == 0 {
					sp.wt[w] = append(sp.wt[w], uint64(k))
				}
				dst[k] += int32(e >> 32)
			}
		}
		for k, v := range cr.Nk {
			m.Nk[k] += v
		}
	}
	// A negative count can only come from a corrupted or mismatched
	// delta; catch it at the barrier instead of training on garbage.
	// Every topic a delta moved is listed: it was either nonzero
	// before the fold or appended above.
	lists := f.lists[:0]
	for _, w := range f.words {
		row := m.nwkRow(w)
		for _, e := range sp.wt[w] {
			if v := row[uint32(e)]; v < 0 {
				m.invalidateSparse()
				return nil, fmt.Errorf("topicmodel: fold drove Nwk[%d][%d] negative (%d)", w, uint32(e), v)
			}
		}
		sp.wt[w] = sortPacked(sp.recount(w))
		lists = append(lists, sp.wt[w])
	}
	f.lists = lists
	for k, v := range m.Nk {
		if v < 0 {
			return nil, fmt.Errorf("topicmodel: fold drove Nk[%d] negative (%d)", k, v)
		}
	}
	return &CountRows{K: m.K, Words: f.words, Lists: lists, Nk: m.Nk}, nil
}

// GlobalRows returns the model's whole word-topic count matrix as
// CountRows — every nonempty row, straight from the word-topic index —
// plus the topic totals: the setup payload a distributed worker
// installs with SetGlobalRows. The lists alias the index; they are
// valid until the next mutation of the model.
func (m *Model) GlobalRows() *CountRows {
	sp := m.ensureSparse()
	cr := &CountRows{K: m.K, Nk: m.Nk}
	for w, list := range sp.wt {
		if len(list) > 0 {
			cr.Words = append(cr.Words, int32(w))
			cr.Lists = append(cr.Lists, list)
		}
	}
	return cr
}

// SetGlobalRows overwrites the model's word-topic counts with
// coordinator-broadcast values: the listed rows wholesale plus the
// full topic-total vector. Workers call this with the globals at setup
// and with the post-fold rows after each barrier; untouched rows are
// already equal on both sides. A row is replaced in O(old + new
// entries): its old index list clears the count row, the new entries
// are written, and the sorted entries become the word's index list —
// the order is a pure function of the counts, so the index matches the
// coordinator's. Every count must be positive (ErrCountRowsNonPositive).
func (m *Model) SetGlobalRows(cr *CountRows) error {
	sp := m.ensureSparse()
	if err := cr.check(m.V, m.K, true, m.foldScratch().check); err != nil {
		return fmt.Errorf("topicmodel: global rows: %w", err)
	}
	for i, w := range cr.Words {
		row := m.nwkRow(w)
		for _, e := range sp.wt[w] {
			row[uint32(e)] = 0
		}
		list := append(sp.wt[w][:0], cr.Lists[i]...)
		for _, e := range list {
			row[uint32(e)] = int32(e >> 32)
		}
		sp.wt[w] = sortPacked(list)
	}
	copy(m.Nk, cr.Nk)
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
