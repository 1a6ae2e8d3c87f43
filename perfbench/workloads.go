package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"topmine"
	"topmine/internal/baselines"
	"topmine/internal/eval"
	"topmine/internal/synth"
)

// The workloads, why each exists, and which end-to-end metric each
// layer metric should move where. Later performance changes cite these
// predictions; a change that moves a number elsewhere than predicted
// has to explain why.
//
// pipeline-abstracts — one batch job from a single client, closed
// loop: a raw dblp-abstracts file goes through ingest
// (BuildCorpusFromSource over LineSource), SplitHeldOut, mining,
// segmentation, serial PhraseLDA at K=50, Visualize and
// SaveSnapshotFile. This is the paper's pipeline; the serial sparse
// sampler does most of the work, and the ~400-stem vocabulary keeps
// the word-topic table in L2. Enough sweeps run that post-burn-in
// sweeps dominate, as in a real 1000-sweep run.
//
// preprocess-titles — one batch job over many short dblp titles:
// ingest, SplitHeldOut, mining, segmentation, SaveCorpusFile, reopen
// with OpenCorpusFile (mmap) and CorpusFile.Run reusing the stored
// artifacts for a few K=10 sweeps. Ingest, mining, segmentation and
// the .tpc store do most of the work and the sampler little, so a
// sampler gain leaves it unchanged and an ingest or mining gain shows
// here first (the mining side of the paper's Fig. 8).
//
// train-sharded — set-up preprocesses a held-out-split corpus from a
// wide-vocabulary spec (about ten thousand stems) into a .tpc file;
// the job is TrainDistributed at K=200 against two ServeTrainingWorker
// goroutines on a free loopback port. The AD-LDA worker sampler, the
// dtrain wire and reconcile path and the mmap DocRange views do the
// work, and the word-topic table exceeds L2. A sparse worker sampler
// must move this one while pipeline-abstracts guards the serial path.
//
// serve-zipf — the served snapshot is trained from raw text by a
// small pipeline job (timed as the job), then set-up is a cold start:
// LoadSnapshotFile, NewInferencer, serve.New on a loopback listener,
// up to the first 200. The load is an open loop of /v1/infer requests
// with a share of /v1/segment, texts drawn with Zipf popularity from a
// pool large enough that a measured share misses the cache, at a
// reference rate and at rates probed up to and past the highest one
// whose whole-phase p99 stays within 50 ms without a backlog. The
// serve, cache, coalescing and Inferencer layers do the work here and
// no other workload reaches them.
//
// Layer metric → the end-to-end metric it should move, and where:
//
//	corpus.ingest_s, corpus.tokens_per_s, corpus.vocab → job_s on
//	  preprocess-titles (ingest ≈ 40% of the job) and on
//	  pipeline-abstracts (≈ 11%).
//	phrasemine.*, segment.segment_s, segment.tokens_per_s → job_s on
//	  preprocess-titles. segment.multiword_share also moves the
//	  per-sweep cost on pipeline-abstracts.
//	corpusfile.* → job_s on preprocess-titles, setup_s on train-sharded.
//	topicmodel.train_s, first_sweep_s, steady_tokens_per_s,
//	  visualize_s → train_tokens_per_s and job_s on pipeline-abstracts;
//	  flat on preprocess-titles.
//	topicmodel.cost_ratio (sharded ÷ serial steady tokens/s on the same
//	  corpus and K, the COST baseline) → train_tokens_per_s on
//	  train-sharded.
//	dtrain.* → job_s on train-sharded.
//	snapshot.*, inferencer.build_ms → setup_s on serve-zipf.
//	inferencer.infer_us_p50, serve.* → max_qps_at_slo and
//	  serve.request_p99_ms on serve-zipf (misses set the tail), and
//	  request_p50_ms there (the hit ratio sets it).
//	loadgen.* — how late the generator ran; when large, the serve
//	  numbers are not trustworthy.
//
// Every workload reports every end-to-end metric, as BENCHMARK.json's
// result format requires of an untraced run. For the batch workloads
// the client's request is the whole job: request_p50_ms is the median
// job latency and max_qps_at_slo is jobs per second, so both restate
// job_s and a job_s change moves all three. Their set-up is a warm-up
// job on a slice of the input; the raw-text pipeline has no other
// set-up. For serve-zipf, job_s, train_tokens_per_s,
// heldout_perplexity and phrase_recall describe the job that trains
// the served snapshot.
var workloads = map[string]func(*runState) error{
	"pipeline-abstracts": runPipelineAbstracts,
	"preprocess-titles":  runPreprocessTitles,
	"train-sharded":      runTrainSharded,
	"serve-zipf":         runServeZipf,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// setupRepeats is how often set-up runs in one run; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 5

// heldOutFrac is the share of each document withheld for document-
// completion perplexity, as in the paper's Figs. 6–7.
const heldOutFrac = 0.2

// Recall floors: a correct pipeline surfaces at least this share of the
// planted multi-word phrases in its topic lists at these sizes.
const (
	recallFloorFull = 0.25
	recallFloorTiny = 0 // too few documents for phrases to be frequent
)

func (r *runState) recallFloor() float64 {
	if r.cfg.tiny {
		return recallFloorTiny
	}
	return recallFloorFull
}

func pipelineOptions(k, sweeps int, seed uint64) topmine.Options {
	opt := topmine.DefaultOptions()
	opt.Topics = k
	opt.Iterations = sweeps
	opt.Seed = seed
	if err := opt.Normalize(); err != nil {
		panic(err) // the options above are valid by construction
	}
	return opt
}

var visualize = topmine.VisualizeOptions{TopUnigrams: 10, TopPhrases: 10}

// jobOut is what one pipeline job leaves for the checks and metrics.
type jobOut struct {
	res    *topmine.Result
	ho     *topmine.HeldOut
	tokens int // training tokens (one sweep's work)
	sweeps int
	train  time.Duration
	stamps []time.Time // end of each sweep
	start  time.Time   // start of training
}

// pipelineJob runs raw text → snapshot: ingest, held-out split,
// mining, segmentation, serial PhraseLDA, Visualize and, when snap is
// non-empty, SaveSnapshotFile.
func (r *runState) pipelineJob(job int, path string, opt topmine.Options, snap string) (*jobOut, error) {
	tr := r.tr
	root := tr.begin("job.pipeline", 0, job)
	defer tr.end(root)
	out := &jobOut{sweeps: opt.Iterations}

	c, err := r.ingest(path, root, job)
	if err != nil {
		return nil, err
	}
	tr.do("corpus.split", root, job, func() { out.ho = topmine.SplitHeldOut(c, heldOutFrac) })
	train := out.ho.Train
	out.tokens = train.TotalTokens
	var mined *topmine.MinedPhrases
	var segs []*topmine.SegmentedDoc
	tr.do("phrasemine.mine", root, job, func() { mined = topmine.MinePhrases(train, opt) })
	tr.do("segment.segment", root, job, func() { segs = topmine.SegmentCorpus(train, mined, opt) })

	var model *topmine.Model
	tr.do("topicmodel.train", root, job, func() {
		out.start = time.Now()
		model = topmine.TrainModelWithCallback(train, segs, opt, func(int, *topmine.Model) {
			out.stamps = append(out.stamps, time.Now())
		})
		out.train = time.Since(out.start)
	})
	var topics []topmine.TopicSummary
	tr.do("topicmodel.visualize", root, job, func() { topics = model.Visualize(train, visualize) })
	out.res = &topmine.Result{Corpus: train, Mined: mined, Segmented: segs, Model: model, Topics: topics, Options: opt}
	if snap != "" {
		tr.do("snapshot.save", root, job, func() { err = topmine.SaveSnapshotFile(snap, out.res) })
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ingest builds a corpus from a one-document-per-line file.
func (r *runState) ingest(path string, parent, job int) (*topmine.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var c *topmine.Corpus
	r.tr.do("corpus.ingest", parent, job, func() {
		c, err = topmine.BuildCorpusFromSource(topmine.LineSource(f), topmine.DefaultCorpusOptions())
	})
	if err != nil {
		return nil, fmt.Errorf("ingest %s: %w", path, err)
	}
	return c, nil
}

// checkModel runs the correctness checks every trained job must pass
// and returns the held-out perplexity and phrase recall.
func (r *runState) checkModel(what string, m *topmine.Model, c *topmine.Corpus, ho *topmine.HeldOut, topics []topmine.TopicSummary, spec synth.DomainSpec) (ppl, recall float64) {
	err := m.CheckInvariants()
	r.check(err == nil, "%s: model invariants: %v", what, err)
	ppl = topmine.Perplexity(m, ho)
	r.check(ppl > 1 && !math.IsInf(ppl, 0) && !math.IsNaN(ppl), "%s: held-out perplexity %v", what, ppl)
	recall = phraseRecall(c, spec, topics)
	r.check(recall >= r.recallFloor(), "%s: phrase recall %.3f below floor %.3f", what, recall, r.recallFloor())
	return ppl, recall
}

// phraseRecall is the share of the spec's planted multi-word phrases
// that appear in some topic's phrase list.
func phraseRecall(c *topmine.Corpus, spec synth.DomainSpec, topics []topmine.TopicSummary) float64 {
	tps := make([]baselines.TopicPhrases, len(topics))
	for i, t := range topics {
		tps[i] = baselines.TopicPhrases{Topic: t.Topic, Unigrams: t.Unigrams}
		for _, p := range t.Phrases {
			tps[i].Phrases = append(tps[i].Phrases, baselines.RankedPhrase{Words: p.Words, Display: p.Display, Score: float64(p.TF)})
		}
	}
	return eval.PhraseRecovery(c, spec.PlantedPhrases(), tps).Recall
}

// steadyRate is the median per-sweep tokens/s after burn-in (the first
// quarter of the sweeps), from sweep-end timestamps.
func steadyRate(start time.Time, stamps []time.Time, tokens int) float64 {
	var rates []float64
	prev := start
	for i, s := range stamps {
		if d := s.Sub(prev); i >= len(stamps)/4 && d > 0 {
			rates = append(rates, float64(tokens)/d.Seconds())
		}
		prev = s
	}
	return median(rates)
}

// batchLoop runs job back to back, one client in a closed loop, for
// the run's seconds: it starts no job that would end past them by the
// median job time, but always runs at least one (two in a traced run,
// which alternates untraced and traced jobs to measure the tracing
// overhead). It returns the untraced and the traced job times.
func (r *runState) batchLoop(job func(id int, traced bool) error) (plain, traced []time.Duration, err error) {
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	start := time.Now()
	var all []time.Duration
	for id := 1; ; id++ {
		on := r.cfg.trace && id%2 == 0
		r.tr.on = on
		// Start every job from a collected heap, so garbage the last
		// one left is not collected on this one's clock.
		runtime.GC()
		t := time.Now()
		if err := job(id, on); err != nil {
			return nil, nil, err
		}
		d := time.Since(t)
		r.logf("job %d: %.3f s (traced=%v), peak RSS %.0f MB", id, d.Seconds(), on, peakRSSMB())
		all = append(all, d)
		if on {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
		minJobs := 1
		if r.cfg.trace {
			minJobs = 2
		}
		next := time.Duration(median(secs(all)) * float64(time.Second))
		if id >= minJobs && time.Since(start)+next > budget {
			break
		}
	}
	r.tr.on = false
	return plain, traced, nil
}

// batchSetup runs set-up setupRepeats times and records the median as
// setup_s.
func (r *runState) batchSetup(f func() error) error {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	r.setE2E("setup_s", "s", median(ds))
	r.logf("set-up: %.3f s median of %d, peak RSS %.0f MB", median(ds), setupRepeats, peakRSSMB())
	return nil
}

// reportJobs records the end-to-end metrics of the jobs that train a
// model. jobs and trains are the untraced jobs' wall and training
// times, tokenSweeps one job's training tokens × sweeps.
func (r *runState) reportJobs(jobs, trains []time.Duration, tokenSweeps float64, ppl, recall float64) {
	r.setE2E("job_s", "s", median(secs(jobs)))
	r.setE2E("train_tokens_per_s", "1/s", tokenSweeps/median(secs(trains)))
	r.setE2E("heldout_perplexity", "ppl", ppl)
	r.setE2E("phrase_recall", "share", recall)
	r.logf("%d jobs, job_s median %.3f", len(jobs), median(secs(jobs)))
}

// reportBatchRequests records the request metrics of a batch workload,
// whose one client's request is the whole job.
func (r *runState) reportBatchRequests(jobs []time.Duration) {
	js := secs(jobs)
	var busy float64
	for _, s := range js {
		busy += s
	}
	r.setE2E("request_p50_ms", "ms", median(js)*1000)
	r.setE2E("max_qps_at_slo", "1/s", float64(len(js))/busy)
}

// finish records the metrics every run reports last. A layer's
// <layer>.self_s is its self time over everything the run traced,
// set-up included, divided by n: the number of traced batch jobs, or 1
// for serve-zipf, whose traced requests overlap and whose self times
// therefore sum over requests. overhead is the traced run's slowdown
// against its untraced jobs.
func (r *runState) finish(n int, overhead float64) {
	r.setE2E("peak_rss_mb", "MB", peakRSSMB())
	tried := max(r.tried, 1)
	r.setE2E("ok_share", "share", float64(tried-r.failed)/float64(tried))
	if !r.cfg.trace {
		return
	}
	self := r.tr.selfTimes()
	for _, l := range layers {
		r.setLayer(l+".self_s", "s", self[l].Seconds()/float64(max(n, 1)))
	}
	r.setLayer("trace.overhead_share", "share", overhead)
}

// overhead is the relative slowdown of the traced jobs' median.
func overhead(plain, traced []time.Duration) float64 {
	pm := median(secs(plain))
	return (median(secs(traced)) - pm) / pm
}

// layers whose self time a traced run reports; "job" is the
// benchmark's own glue between layer calls.
var layers = []string{"job", "corpus", "phrasemine", "segment", "corpusfile", "topicmodel", "dtrain", "snapshot", "inferencer", "serve", "loadgen"}

// perJob is a traced span total averaged over the traced jobs.
func (r *runState) perJob(name string, jobs int) time.Duration {
	return r.tr.total(name) / time.Duration(max(jobs, 1))
}

// reportFrontLayers records the ingest, mining and segmentation layer
// metrics of the last traced job.
func (r *runState) reportFrontLayers(jobs int, rawTokens int, c *topmine.Corpus, mined *topmine.MinedPhrases, segs []*topmine.SegmentedDoc) {
	ing := r.perJob("corpus.ingest", jobs)
	mine := r.perJob("phrasemine.mine", jobs)
	seg := r.perJob("segment.segment", jobs)
	r.setLayer("corpus.ingest_s", "s", ing.Seconds())
	r.setLayer("corpus.tokens_per_s", "1/s", rate(rawTokens, ing))
	r.setLayer("corpus.vocab", "count", float64(c.Vocab.Size()))
	r.setLayer("phrasemine.mine_s", "s", mine.Seconds())
	r.setLayer("phrasemine.tokens_per_s", "1/s", rate(c.TotalTokens, mine))
	r.setLayer("phrasemine.frequent_phrases", "count", float64(mined.Counts.Len()))
	r.setLayer("segment.segment_s", "s", seg.Seconds())
	r.setLayer("segment.tokens_per_s", "1/s", rate(c.TotalTokens, seg))
	var phrases, multi int
	for _, d := range segs {
		for _, spans := range d.Spans {
			for _, s := range spans {
				phrases++
				if s.Len() > 1 {
					multi++
				}
			}
		}
	}
	r.setLayer("segment.multiword_share", "share", float64(multi)/float64(max(phrases, 1)))
}

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// zeroLayers records every per-layer metric of BENCHMARK.json that the
// workload did not reach as 0: that layer did no work in it.
func (r *runState) zeroLayers() error {
	if !r.cfg.trace {
		return nil
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	for _, m := range spec.PerLayer {
		if _, ok := r.layer[m.Name]; !ok {
			r.setLayer(m.Name, m.Unit, 0)
		}
	}
	return nil
}

// countRawTokens is the number of whitespace-separated tokens in a
// file, the ingest layer's input size.
func countRawTokens(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n, in := 0, false
	for _, c := range b {
		space := c == ' ' || c == '\n' || c == '\t'
		if !space && !in {
			n++
		}
		in = !space
	}
	return n, nil
}

// ---- pipeline-abstracts ----

type pipeSize struct{ docs, warmDocs, k, sweeps int }

func (r *runState) abstractsSize() pipeSize {
	if r.cfg.tiny {
		return pipeSize{docs: 300, warmDocs: 60, k: 10, sweeps: 8}
	}
	return pipeSize{docs: 5000, warmDocs: 500, k: 50, sweeps: 40}
}

func runPipelineAbstracts(r *runState) error {
	sz := r.abstractsSize()
	spec := synth.DBLPAbstracts()
	path, err := writeDocs(r.dir, "abstracts.txt", spec, sz.docs, r.cfg.seed)
	if err != nil {
		return err
	}
	warm, err := writeDocs(r.dir, "warmup.txt", spec, sz.warmDocs, r.cfg.seed)
	if err != nil {
		return err
	}
	opt := pipelineOptions(sz.k, sz.sweeps, r.cfg.seed)
	snap := filepath.Join(r.dir, "model.tpm")
	if err := r.batchSetup(func() error {
		_, err := r.pipelineJob(0, warm, opt, snap)
		return err
	}); err != nil {
		return err
	}

	var last *jobOut
	var trains []time.Duration
	plain, traced, err := r.batchLoop(func(id int, tracedJob bool) error {
		out, err := r.pipelineJob(id, path, opt, snap)
		if err != nil {
			return err
		}
		if !tracedJob {
			trains = append(trains, out.train)
		}
		last = out
		return nil
	})
	if err != nil {
		return err
	}
	ppl, recall := r.checkModel("pipeline-abstracts", last.res.Model, last.res.Corpus, last.ho, last.res.Topics, spec)
	r.reportJobs(plain, trains, float64(last.tokens*last.sweeps), ppl, recall)
	r.reportBatchRequests(plain)
	if r.cfg.trace {
		raw, err := countRawTokens(path)
		if err != nil {
			return err
		}
		n := len(traced)
		r.reportFrontLayers(n, raw, last.res.Corpus, last.res.Mined, last.res.Segmented)
		r.reportTrainLayers(n, last)
		st, err := os.Stat(snap)
		if err != nil {
			return err
		}
		r.setLayer("snapshot.save_ms", "ms", ms(r.perJob("snapshot.save", n)))
		r.setLayer("snapshot.bytes", "bytes", float64(st.Size()))
	}
	r.finish(len(traced), overhead(plain, traced))
	return r.zeroLayers()
}

// reportTrainLayers records the serial sampler's layer metrics.
func (r *runState) reportTrainLayers(jobs int, out *jobOut) {
	r.setLayer("topicmodel.train_s", "s", r.perJob("topicmodel.train", jobs).Seconds())
	r.setLayer("topicmodel.first_sweep_s", "s", out.stamps[0].Sub(out.start).Seconds())
	r.setLayer("topicmodel.steady_tokens_per_s", "1/s", steadyRate(out.start, out.stamps, out.tokens))
	r.setLayer("topicmodel.visualize_s", "s", r.perJob("topicmodel.visualize", jobs).Seconds())
}

// ---- preprocess-titles ----

func (r *runState) titlesSize() pipeSize {
	if r.cfg.tiny {
		return pipeSize{docs: 2000, warmDocs: 200, k: 5, sweeps: 3}
	}
	return pipeSize{docs: 80000, warmDocs: 5000, k: 10, sweeps: 5}
}

func runPreprocessTitles(r *runState) error {
	sz := r.titlesSize()
	spec := synth.DBLPTitles()
	path, err := writeDocs(r.dir, "titles.txt", spec, sz.docs, r.cfg.seed)
	if err != nil {
		return err
	}
	warm, err := writeDocs(r.dir, "warmup.txt", spec, sz.warmDocs, r.cfg.seed)
	if err != nil {
		return err
	}
	opt := pipelineOptions(sz.k, sz.sweeps, r.cfg.seed)
	tpc := filepath.Join(r.dir, "titles.tpc")
	type titlesOut struct {
		res    *topmine.Result
		ho     *topmine.HeldOut
		front  *topmine.Result
		reused bool
		train  time.Duration
	}
	job := func(id int, src string) (*titlesOut, error) {
		tr := r.tr
		root := tr.begin("job.preprocess", 0, id)
		defer tr.end(root)
		out := &titlesOut{}
		var err error
		out.ho, out.front, err = r.preprocessFile(src, tpc, opt, root, id)
		if err != nil {
			return nil, err
		}
		var cf *topmine.CorpusFile
		tr.do("corpusfile.open", root, id, func() { cf, err = topmine.OpenCorpusFile(tpc) })
		if err != nil {
			return nil, err
		}
		defer cf.Close()
		out.reused = cf.CanReuseArtifacts(opt)
		t := time.Now()
		tr.do("topicmodel.train", root, id, func() { out.res, err = cf.Run(opt) })
		out.train = time.Since(t)
		return out, err
	}
	if err := r.batchSetup(func() error {
		out, err := job(0, warm)
		if err == nil {
			err = out.res.Close()
		}
		return err
	}); err != nil {
		return err
	}

	var last *titlesOut
	var trains []time.Duration
	plain, traced, err := r.batchLoop(func(id int, tracedJob bool) error {
		out, err := job(id, path)
		if err != nil {
			return err
		}
		r.check(out.reused, "preprocess-titles: job %d did not reuse the stored mining artifacts", id)
		if !tracedJob {
			trains = append(trains, out.train)
		}
		if last != nil {
			last.res.Close()
		}
		last = out
		return nil
	})
	if err != nil {
		return err
	}
	defer last.res.Close()
	ppl, recall := r.checkModel("preprocess-titles", last.res.Model, last.res.Corpus, last.ho, last.res.Topics, spec)
	r.reportJobs(plain, trains, float64(last.ho.Train.TotalTokens*sz.sweeps), ppl, recall)
	r.reportBatchRequests(plain)
	if r.cfg.trace {
		raw, err := countRawTokens(path)
		if err != nil {
			return err
		}
		n := len(traced)
		r.reportFrontLayers(n, raw, last.front.Corpus, last.front.Mined, last.front.Segmented)
		if err := r.reportCorpusFile(n, tpc, last.reused); err != nil {
			return err
		}
		// CorpusFile.Run trains and visualizes in one call; its span
		// is the topic-model layer's time on this workload.
		r.setLayer("topicmodel.train_s", "s", r.perJob("topicmodel.train", n).Seconds())
	}
	r.finish(len(traced), overhead(plain, traced))
	return r.zeroLayers()
}

// reportCorpusFile records the .tpc layer metrics: writes and opens
// averaged over n traced calls, the file's size, and whether training
// reused its stored artifacts.
func (r *runState) reportCorpusFile(n int, tpc string, reused bool) error {
	st, err := os.Stat(tpc)
	if err != nil {
		return err
	}
	r.setLayer("corpusfile.write_s", "s", r.perJob("corpusfile.write", n).Seconds())
	r.setLayer("corpusfile.bytes", "bytes", float64(st.Size()))
	r.setLayer("corpusfile.open_ms", "ms", ms(r.perJob("corpusfile.open", n)))
	count := 0.0
	if reused {
		count = 1
	}
	r.setLayer("corpusfile.artifacts_reused", "count", count)
	return nil
}

// preprocessFile runs ingest, the held-out split, mining and
// segmentation over a raw text file and saves the result as a .tpc
// corpus file.
func (r *runState) preprocessFile(src, tpc string, opt topmine.Options, parent, job int) (*topmine.HeldOut, *topmine.Result, error) {
	tr := r.tr
	c, err := r.ingest(src, parent, job)
	if err != nil {
		return nil, nil, err
	}
	var ho *topmine.HeldOut
	tr.do("corpus.split", parent, job, func() { ho = topmine.SplitHeldOut(c, heldOutFrac) })
	front := &topmine.Result{Corpus: ho.Train, Options: opt}
	tr.do("phrasemine.mine", parent, job, func() { front.Mined = topmine.MinePhrases(ho.Train, opt) })
	tr.do("segment.segment", parent, job, func() { front.Segmented = topmine.SegmentCorpus(ho.Train, front.Mined, opt) })
	tr.do("corpusfile.write", parent, job, func() { err = topmine.SaveCorpusFile(tpc, front) })
	if err != nil {
		return nil, nil, err
	}
	return ho, front, nil
}
