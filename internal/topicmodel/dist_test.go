package topicmodel

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// mixedCliqueDocs builds a corpus with multi-word cliques and varied
// document lengths — both sampler paths (unigram and phrase) and
// uneven shard boundaries get exercised.
func mixedCliqueDocs(n int) []Doc {
	docs := make([]Doc, n)
	for d := 0; d < n; d++ {
		doc := Doc{ID: d, Cliques: [][]int32{
			{int32(d % 4), int32((d + 1) % 4)},
			{int32(d % 7)},
			{4, 5, 6},
		}}
		for j := 0; j < d%5; j++ {
			doc.Cliques = append(doc.Cliques, [][]int32{{int32((d + j) % 9)}}...)
		}
		docs[d] = doc
	}
	return docs
}

// distSimulate reproduces the distributed training loop in-package —
// shard models, wire-codec round trips at every barrier, value
// rebroadcast, hyper-barrier Ndk uploads, final state install — so the
// byte-identity contract is pinned without sockets. internal/dtrain
// re-tests it across real connections and processes.
func distSimulate(t *testing.T, docs []Doc, v int, opt Options, workers int) *Model {
	t.Helper()
	opt = opt.Filled()
	cm := NewModel(docs, v, opt)
	ranges := ShardRanges(docs, workers)

	shards := make([]*Model, workers)
	for wi, r := range ranges {
		lo, hi := r[0], r[1]
		sdocs := make([]Doc, hi-lo)
		copy(sdocs, docs[lo:hi])
		z := make([][]int32, hi-lo)
		for i := range z {
			z[i] = append([]int32(nil), cm.Z[lo+i]...)
		}
		nwk := make([]int32, v*opt.K)
		for w := 0; w < v; w++ {
			copy(nwk[w*opt.K:(w+1)*opt.K], cm.Nwk[w])
		}
		nk := append([]int64(nil), cm.Nk...)
		alpha := append([]float64(nil), cm.Alpha...)
		sm, err := NewShardModel(sdocs, v, opt.K, alpha, cm.AlphaSum, cm.Beta, z, nwk, nk)
		if err != nil {
			t.Fatalf("shard %d: %v", wi, err)
		}
		shards[wi] = sm
	}

	for it := 1; it <= opt.Iterations; it++ {
		base := cm.NextSweepBase()
		hyper := opt.OptimizeHyper && it > opt.BurnIn && it%opt.HyperEvery == 0
		deltas := make([]*CountRows, workers)
		for wi, sm := range shards {
			if err := sm.SetPriors(cm.Alpha, cm.AlphaSum, cm.Beta, cm.BetaSum); err != nil {
				t.Fatal(err)
			}
			d := sm.ShardSweep(wi, base)
			wire := d.AppendTo(nil)
			dec, err := DecodeCountRows(wire, v, opt.K)
			if err != nil {
				t.Fatalf("delta codec round trip: len=%d err=%v", len(wire), err)
			}
			deltas[wi] = dec
			sm.ResetShardDelta()
		}
		combined, err := cm.FoldShardDeltas(deltas)
		if err != nil {
			t.Fatal(err)
		}
		if hyper {
			for wi, sm := range shards {
				lo := ranges[wi][0]
				for i := range sm.Ndk {
					copy(cm.Ndk[lo+i], sm.Ndk[i])
				}
			}
		}
		wire := combined.AppendTo(nil)
		dec, err := DecodeCountRows(wire, v, opt.K)
		if err != nil {
			t.Fatalf("globals codec: %v", err)
		}
		for _, sm := range shards {
			if err := sm.SetGlobalRows(dec); err != nil {
				t.Fatal(err)
			}
		}
		if hyper {
			cm.OptimizeAlpha(5)
			cm.OptimizeBeta(5)
		}
	}

	for wi, sm := range shards {
		if err := cm.InstallShardState(ranges[wi][0], sm.Z); err != nil {
			t.Fatalf("install shard %d: %v", wi, err)
		}
	}
	return cm
}

func assertModelsIdentical(t *testing.T, want, got *Model) {
	t.Helper()
	for d := range want.Z {
		if !int32SlicesEq(want.Z[d], got.Z[d]) {
			t.Fatalf("Z[%d] differs: %v vs %v", d, want.Z[d], got.Z[d])
		}
		if !int32SlicesEq(want.Ndk[d], got.Ndk[d]) {
			t.Fatalf("Ndk[%d] differs", d)
		}
	}
	for w := range want.Nwk {
		if !int32SlicesEq(want.Nwk[w], got.Nwk[w]) {
			t.Fatalf("Nwk[%d] differs: %v vs %v", w, want.Nwk[w], got.Nwk[w])
		}
	}
	for k := range want.Nk {
		if want.Nk[k] != got.Nk[k] {
			t.Fatalf("Nk[%d]: %d vs %d", k, want.Nk[k], got.Nk[k])
		}
	}
	for k := range want.Alpha {
		if want.Alpha[k] != got.Alpha[k] {
			t.Fatalf("Alpha[%d]: %v vs %v", k, want.Alpha[k], got.Alpha[k])
		}
	}
	if want.AlphaSum != got.AlphaSum || want.Beta != got.Beta || want.BetaSum != got.BetaSum {
		t.Fatalf("priors differ: %v/%v/%v vs %v/%v/%v",
			want.AlphaSum, want.Beta, want.BetaSum, got.AlphaSum, got.Beta, got.BetaSum)
	}
}

func int32SlicesEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDistBarrierMatchesSweepParallel is the core byte-identity pin:
// the distributed barrier protocol (shard models + wire codec + value
// rebroadcast), driven with the same topology, reproduces
// TrainParallel's final state exactly — including across hyperparameter
// optimisation barriers.
func TestDistBarrierMatchesSweepParallel(t *testing.T) {
	// workers >= 2: SweepParallel(1) falls back to the serial sampler,
	// which the distributed protocol deliberately does not mimic.
	docs := mixedCliqueDocs(60)
	for _, workers := range []int{2, 3} {
		opt := Options{K: 3, Iterations: 40, OptimizeHyper: true, HyperEvery: 10, BurnIn: 5, Seed: 77}
		want := TrainParallel(docs, 10, opt, workers)
		got := distSimulate(t, docs, 10, opt, workers)
		assertModelsIdentical(t, want, got)
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%d workers: coordinator invariants: %v", workers, err)
		}
	}
}

// TestDistBarrierSkewedCorpus runs the same pin over a skewed corpus,
// where one shard is a single giant document.
func TestDistBarrierSkewedCorpus(t *testing.T) {
	docs := skewedDocs(40, 100)
	opt := Options{K: 3, Iterations: 15, Seed: 19}
	want := TrainParallel(docs, 10, opt, 2)
	got := distSimulate(t, docs, 10, opt, 2)
	assertModelsIdentical(t, want, got)
}

// TestDistBarrierMatchesSweepParallelSparse is the byte-identity pin
// at realistic sparsity: K=50 over a few hundred words with phrase
// cliques of length 1–4, where word-topic rows are mostly zero, so each
// side's index is refreshed row by row after every fold (in process the
// union of the workers' touched words, distributed the rebroadcast
// rows). A stale refresh on either side shows up as a diff.
func TestDistBarrierMatchesSweepParallelSparse(t *testing.T) {
	const v = 400
	docs := plantedCliqueDocs(150, v, 29)
	for _, workers := range []int{2, 3} {
		opt := Options{K: 50, Iterations: 30, OptimizeHyper: true, HyperEvery: 10, BurnIn: 5, Seed: 83}
		want := TrainParallel(docs, v, opt, workers)
		got := distSimulate(t, docs, v, opt, workers)
		assertModelsIdentical(t, want, got)
		if err := want.CheckInvariants(); err != nil {
			t.Fatalf("%d workers: in-process invariants: %v", workers, err)
		}
		nnz, rows := 0, 0
		for w := 0; w < v; w++ {
			if n := len(want.sp.wt[w]); n > 0 {
				nnz += n
				rows++
			}
		}
		if mean := float64(nnz) / float64(rows); mean > float64(opt.K)/4 {
			t.Fatalf("%d workers: word rows hold %.1f of %d topics on average; the pin needs sparse rows", workers, mean, opt.K)
		}
	}
}

// countRowsCase is one CountRows payload for a V=4, K=2 model and the
// named error decoding it must return (nil: it decodes).
type countRowsCase struct {
	name string
	cr   *CountRows
	cut  int // bytes to chop off the encoding
	add  int // zero bytes to append to it
	want error
}

// countRowsCases is the malformed-payload table shared by
// TestCountRowsCodecErrors and the FuzzDecodeCountRows seeds.
func countRowsCases() []countRowsCase {
	rows := func(words []int32, lists ...[]uint64) *CountRows {
		return &CountRows{K: 2, Words: words, Lists: lists, Nk: []int64{5, -5}}
	}
	e := packCount
	return []countRowsCase{
		{name: "valid signed delta", cr: rows([]int32{3, 1}, []uint64{e(0, 1), e(1, -2)}, []uint64{e(1, 7)})},
		{name: "empty row", cr: rows([]int32{2}, nil)},
		{name: "no rows", cr: rows(nil)},
		{name: "truncated", cr: rows([]int32{3}, []uint64{e(0, 1)}), cut: 1, want: ErrCountRowsTruncated},
		{name: "truncated header", cr: rows(nil), cut: 8*2 + 1, want: ErrCountRowsTruncated},
		{name: "row count beyond payload", cr: rows([]int32{3}, []uint64{e(0, 1)}), cut: 8*2 + 16, want: ErrCountRowsTruncated},
		{name: "trailing bytes", cr: rows([]int32{3}, []uint64{e(0, 1)}), add: 3, want: ErrCountRowsTrailing},
		{name: "K mismatch", cr: &CountRows{K: 3, Nk: []int64{0, 0, 0}}, want: ErrCountRowsShape},
		{name: "more rows than words", cr: rows([]int32{0, 1, 2, 3, 0}, nil, nil, nil, nil, nil), want: ErrCountRowsShape},
		{name: "word beyond vocab", cr: rows([]int32{4}, []uint64{e(0, 1)}), want: ErrCountRowsWord},
		{name: "negative word", cr: rows([]int32{-1}, []uint64{e(0, 1)}), want: ErrCountRowsWord},
		{name: "duplicate word", cr: rows([]int32{1, 1}, []uint64{e(0, 1)}, []uint64{e(1, 1)}), want: ErrCountRowsDupWord},
		{name: "more than K entries", cr: rows([]int32{0}, []uint64{e(0, 1), e(1, 1), e(0, 2)}), want: ErrCountRowsTooLong},
		{name: "topic >= K", cr: rows([]int32{0}, []uint64{e(2, 1)}), want: ErrCountRowsTopic},
		{name: "zero count", cr: rows([]int32{0}, []uint64{e(1, 0)}), want: ErrCountRowsZero},
		{name: "duplicate topic", cr: rows([]int32{0}, []uint64{e(1, 1), e(1, 2)}), want: ErrCountRowsDupTopic},
	}
}

// TestCountRowsCodecErrors pins every malformed payload to its named
// error, valid payloads to a byte-exact round trip, and the installer's
// extra rule for absolute values (ROWS, GLOBALS): positive counts only.
func TestCountRowsCodecErrors(t *testing.T) {
	for _, tc := range countRowsCases() {
		wire := tc.cr.AppendTo(nil)
		wire = append(wire[:len(wire)-tc.cut], make([]byte, tc.add)...)
		dec, err := DecodeCountRows(wire, 4, 2)
		if !errors.Is(err, tc.want) || (err != nil) != (tc.want != nil) {
			t.Errorf("%s: got error %v, want %v", tc.name, err, tc.want)
			continue
		}
		if err == nil && !bytes.Equal(dec.AppendTo(nil), wire) {
			t.Errorf("%s: decoded payload re-encodes differently", tc.name)
		}
	}
	if dec, _ := DecodeCountRows(countRowsCases()[0].cr.AppendTo(nil), 4, 2); int32(dec.Lists[0][1]>>32) != -2 || dec.Nk[1] != -5 {
		t.Fatal("negative deltas mangled in transit")
	}
	if _, err := DecodeCountRows(nil, 4, 2); !errors.Is(err, ErrCountRowsTruncated) {
		t.Fatalf("empty payload: %v", err)
	}

	// A signed delta decodes, but installing it as global values fails,
	// as does a negative topic total; a rejected install changes nothing.
	m := NewModel(mixedCliqueDocs(10), 10, Options{K: 2, Iterations: 1, Seed: 3})
	before := m.GlobalRows().AppendTo(nil)
	for _, cr := range []*CountRows{
		{K: 2, Words: []int32{0}, Lists: [][]uint64{{packCount(0, 3), packCount(1, -1)}}, Nk: []int64{3, 0}},
		{K: 2, Words: []int32{0}, Lists: [][]uint64{{packCount(0, 3)}}, Nk: []int64{3, -1}},
	} {
		dec, err := DecodeCountRows(cr.AppendTo(nil), 10, 2)
		if err != nil {
			t.Fatalf("signed payload rejected by the codec: %v", err)
		}
		if err := m.SetGlobalRows(dec); !errors.Is(err, ErrCountRowsNonPositive) {
			t.Fatalf("non-positive global rows: got %v, want ErrCountRowsNonPositive", err)
		}
	}
	if !bytes.Equal(m.GlobalRows().AppendTo(nil), before) {
		t.Fatal("rejected global rows modified the model")
	}
}

// FuzzDecodeCountRows feeds DecodeCountRows arbitrary payloads for
// model shapes up to 4096×4096. It must never panic; it must allocate
// in proportion to the payload (plus its O(V + K) validation scratch),
// not to the row and entry counts the payload claims; and every
// payload it accepts must re-encode to the same bytes. Seeds: a real
// DELTA, ROWS and GLOBALS payload and the malformed-payload table. The
// real payloads come from a tiny model: the minimizer's cost grows
// with the square of an input's length.
func FuzzDecodeCountRows(f *testing.F) {
	const v, k = 10, 3
	m := NewModel(mixedCliqueDocs(8), v, Options{K: k, Iterations: 1, Seed: 9})
	sm := shardOf(f, m, 0, len(m.Docs))
	delta := sm.ShardSweep(0, 1)
	f.Add(delta.AppendTo(nil), uint16(v), uint16(k))
	rows, err := m.FoldShardDeltas([]*CountRows{delta})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rows.AppendTo(nil), uint16(v), uint16(k))
	f.Add(m.GlobalRows().AppendTo(nil), uint16(v), uint16(k))
	for _, tc := range countRowsCases() {
		wire := tc.cr.AppendTo(nil)
		f.Add(append(wire[:len(wire)-tc.cut], make([]byte, tc.add)...), uint16(4), uint16(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, v, k uint16) {
		if v == 0 || k == 0 || v > 4096 || k > 4096 {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cr, err := DecodeCountRows(data, int(v), int(k))
		runtime.ReadMemStats(&after)
		limit := 8*len(data) + 8*(int(v)+int(k)) + 16<<10
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit) {
			t.Fatalf("decoding %d bytes (V=%d, K=%d) allocated %d bytes, limit %d", len(data), v, k, got, limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(cr.AppendTo(nil), data) {
			t.Fatalf("accepted payload re-encodes differently")
		}
	})
}

func TestFoldShardDeltasRejectsBadDeltas(t *testing.T) {
	docs := mixedCliqueDocs(10)
	m := NewModel(docs, 10, Options{K: 2, Iterations: 1, Seed: 3})
	if _, err := m.FoldShardDeltas([]*CountRows{{K: 3, Nk: []int64{0, 0, 0}}}); !errors.Is(err, ErrCountRowsShape) {
		t.Fatalf("K mismatch: %v", err)
	}
	bad := &CountRows{K: 2, Words: []int32{99}, Lists: [][]uint64{{packCount(0, 1)}}, Nk: []int64{1, 0}}
	if _, err := m.FoldShardDeltas([]*CountRows{bad}); !errors.Is(err, ErrCountRowsWord) {
		t.Fatalf("out-of-vocab word: %v", err)
	}
	bad = &CountRows{K: 2, Words: []int32{1}, Lists: [][]uint64{{packCount(5, 1)}}, Nk: []int64{1, 0}}
	if _, err := m.FoldShardDeltas([]*CountRows{bad}); !errors.Is(err, ErrCountRowsTopic) {
		t.Fatalf("out-of-range topic: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("rejected deltas modified the model: %v", err)
	}
	// A delta that drives a count negative must be rejected loudly.
	neg := &CountRows{K: 2, Words: []int32{0}, Lists: [][]uint64{{packCount(0, -1000)}}, Nk: []int64{-1000, 0}}
	if _, err := m.FoldShardDeltas([]*CountRows{neg}); err == nil {
		t.Fatal("negative fold accepted")
	}
}

func TestNewShardModelValidation(t *testing.T) {
	docs := mixedCliqueDocs(4)
	alpha := []float64{1, 1}
	goodZ := make([][]int32, len(docs))
	for i := range goodZ {
		goodZ[i] = make([]int32, len(docs[i].Cliques))
	}
	nwk := make([]int32, 10*2)
	nk := make([]int64, 2)
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, goodZ, nwk, nk); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	if _, err := NewShardModel(docs, 10, 2, alpha[:1], 2, 0.01, goodZ, nwk, nk); err == nil {
		t.Fatal("short alpha accepted")
	}
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, goodZ[:2], nwk, nk); err == nil {
		t.Fatal("z/doc count mismatch accepted")
	}
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, goodZ, nwk[:5], nk); err == nil {
		t.Fatal("short nwk arena accepted")
	}
	badZ := make([][]int32, len(docs))
	for i := range badZ {
		badZ[i] = make([]int32, len(docs[i].Cliques))
	}
	badZ[0][0] = 7
	if _, err := NewShardModel(docs, 10, 2, alpha, 2, 0.01, badZ, nwk, nk); err == nil {
		t.Fatal("out-of-range topic accepted")
	}
}

func TestDocsChecksum(t *testing.T) {
	a := mixedCliqueDocs(8)
	b := mixedCliqueDocs(8)
	if DocsChecksum(a) != DocsChecksum(b) {
		t.Fatal("identical docs, different checksums")
	}
	// IDs are excluded: a rebased shard must checksum the same.
	for i := range b {
		b[i].ID = i + 100
	}
	if DocsChecksum(a) != DocsChecksum(b) {
		t.Fatal("doc IDs leaked into the checksum")
	}
	b[3].Cliques[0][0]++
	if DocsChecksum(a) == DocsChecksum(b) {
		t.Fatal("word change not detected")
	}
	if DocsChecksum(a[:4]) == DocsChecksum(a) {
		t.Fatal("range change not detected")
	}
}
