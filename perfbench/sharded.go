package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"topmine"
)

type shardSize struct{ docs, k, sweeps, workers int }

func (r *runState) shardSize() shardSize {
	if r.cfg.tiny {
		return shardSize{docs: 300, k: 20, sweeps: 4, workers: 2}
	}
	return shardSize{docs: 6000, k: 200, sweeps: 8, workers: 2}
}

// shardJob is one distributed training run's outputs.
type shardJob struct {
	res     *topmine.Result
	wall    time.Duration
	connect time.Duration
	stats   []topmine.SweepStats
	stamps  []time.Time
	start   time.Time
	trace   bytes.Buffer
}

func runTrainSharded(r *runState) error {
	sz := r.shardSize()
	spec := wideVocabSpec()
	raw, err := writeDocs(r.dir, "wide.txt", spec, sz.docs, r.cfg.seed)
	if err != nil {
		return err
	}
	opt := pipelineOptions(sz.k, sz.sweeps, r.cfg.seed)
	tpc := filepath.Join(r.dir, "wide.tpc")

	// Set-up: preprocess the held-out-split corpus into the .tpc file
	// the workers map, and reopen it to confirm that training will
	// reuse its stored mining artifacts (TrainDistributed skips mining
	// and segmentation only when they match the options). A traced run
	// traces set-up: the corpus-file layer does its work here.
	var ho *topmine.HeldOut
	var front *topmine.Result
	var reused bool
	r.tr.on = r.cfg.trace
	if err := r.batchSetup(func() error {
		ho, front, err = r.preprocessFile(raw, tpc, opt, 0, 0)
		if err != nil {
			return err
		}
		var cf *topmine.CorpusFile
		r.tr.do("corpusfile.open", 0, 0, func() { cf, err = topmine.OpenCorpusFile(tpc) })
		if err != nil {
			return err
		}
		reused = cf.CanReuseArtifacts(opt)
		return cf.Close()
	}); err != nil {
		return err
	}
	r.tr.on = false
	r.check(reused, "train-sharded: the .tpc file's stored artifacts do not match the training options")
	tokens := ho.Train.TotalTokens

	var last, lastTraced *shardJob
	var trains []time.Duration
	var topicsText []string
	plain, traced, err := r.batchLoop(func(id int, tracedJob bool) error {
		j, err := r.shardJob(id, tpc, opt, sz.workers, tracedJob)
		if err != nil {
			return err
		}
		topicsText = append(topicsText, topmine.FormatTopics(j.res.Topics))
		if !tracedJob {
			trains = append(trains, j.wall)
		} else {
			lastTraced = j
		}
		if last != nil {
			last.res.Close()
		}
		last = j
		return nil
	})
	if err != nil {
		return err
	}
	defer last.res.Close()
	if err := os.WriteFile(filepath.Join(r.dir, "topics.txt"), []byte(topicsText[0]), 0o644); err != nil {
		return err
	}
	for i := 1; i < len(topicsText); i++ {
		r.check(topicsText[i] == topicsText[0], "train-sharded: job %d topics differ from job 1 (same seed, same topology)", i+1)
	}
	ppl, recall := r.checkModel("train-sharded", last.res.Model, last.res.Corpus, ho, last.res.Topics, spec)
	r.reportJobs(plain, trains, float64(tokens*sz.sweeps), ppl, recall)
	r.reportBatchRequests(plain)

	if r.cfg.trace {
		rawTokens, err := countRawTokens(raw)
		if err != nil {
			return err
		}
		r.reportFrontLayers(setupRepeats, rawTokens, front.Corpus, front.Mined, front.Segmented)
		if err := r.reportCorpusFile(setupRepeats, tpc, reused); err != nil {
			return err
		}
		n := len(traced)
		tj := lastTraced
		sharded := steadyRate(tj.start, tj.stamps, tokens)
		serial, err := r.serialBaseline(tpc, opt, tokens)
		if err != nil {
			return err
		}
		r.setLayer("topicmodel.train_s", "s", r.perJob("dtrain.train", n).Seconds())
		r.setLayer("topicmodel.first_sweep_s", "s", tj.stamps[0].Sub(tj.start).Seconds())
		r.setLayer("topicmodel.steady_tokens_per_s", "1/s", sharded)
		r.setLayer("topicmodel.cost_ratio", "ratio", sharded/serial)
		var sample, recon, strag time.Duration
		for _, s := range tj.stats {
			sample += s.Sample
			recon += s.Reconcile
			lo, hi := s.WorkerSample[0], s.WorkerSample[0]
			for _, w := range s.WorkerSample {
				lo, hi = min(lo, w), max(hi, w)
			}
			strag += hi - lo
		}
		r.setLayer("dtrain.connect_s", "s", tj.connect.Seconds())
		r.setLayer("dtrain.sample_s", "s", sample.Seconds())
		r.setLayer("dtrain.reconcile_s", "s", recon.Seconds())
		r.setLayer("dtrain.straggler_s", "s", strag.Seconds())
		db, err := deltaBytes(&tj.trace)
		if err != nil {
			return err
		}
		r.setLayer("dtrain.delta_bytes", "bytes", float64(db))
	}
	r.finish(len(traced), overhead(plain, traced))
	return r.zeroLayers()
}

// shardJob runs TrainDistributed against workers ServeTrainingWorker
// goroutines on a free loopback port and waits for all of them.
func (r *runState) shardJob(id int, tpc string, opt topmine.Options, workers int, traced bool) (*shardJob, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	j := &shardJob{}
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			werrs[w] = topmine.ServeTrainingWorker(addr, topmine.TrainingWorkerOptions{
				DialTimeout: 30 * time.Second, BarrierTimeout: 60 * time.Second,
			})
		}(w)
	}
	dopt := topmine.DistributedOptions{
		Addr: addr, Workers: workers,
		AcceptTimeout: 30 * time.Second, BarrierTimeout: 60 * time.Second,
		SweepStats: func(s topmine.SweepStats) {
			now := time.Now()
			if len(j.stamps) == 0 {
				j.connect = now.Sub(j.start)
			}
			j.stamps = append(j.stamps, now)
			j.stats = append(j.stats, s)
		},
	}
	if traced {
		// The training trace carries each worker's delta bytes per
		// sweep; it is the run's telemetry, so only traced runs pay it.
		dopt.TraceLog = &j.trace
	}
	root := r.tr.begin("dtrain.train", 0, id)
	j.start = time.Now()
	j.res, err = topmine.TrainDistributed(tpc, opt, dopt)
	j.wall = time.Since(j.start)
	r.tr.end(root)
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("TrainDistributed: %w", err)
	}
	for w, werr := range werrs {
		if werr != nil {
			j.res.Close()
			return nil, fmt.Errorf("training worker %d: %w", w, werr)
		}
	}
	// The sample and reconcile phases the coordinator timed become
	// child spans, so the trace attributes the job's time to them.
	if traced {
		for i, s := range j.stats {
			end := j.stamps[i]
			r.tr.add("dtrain.sample", root, id, end.Add(-s.Reconcile-s.Sample), s.Sample)
			r.tr.add("dtrain.reconcile", root, id, end.Add(-s.Reconcile), s.Reconcile)
		}
	}
	return j, nil
}

// serialBaseline trains the serial sampler on the same corpus and K
// and returns its steady tokens/s: the best single-thread
// configuration the sharded rate is measured against.
func (r *runState) serialBaseline(tpc string, opt topmine.Options, tokens int) (float64, error) {
	cf, err := topmine.OpenCorpusFile(tpc)
	if err != nil {
		return 0, err
	}
	defer cf.Close()
	var stamps []time.Time
	start := time.Now()
	topmine.TrainModelWithCallback(cf.Corpus(), cf.Segmented(), opt, func(int, *topmine.Model) {
		stamps = append(stamps, time.Now())
	})
	return steadyRate(start, stamps, tokens), nil
}

// deltaBytes sums the worker delta bytes of a distributed training
// trace (one JSON object per line; "delta" events carry "bytes").
func deltaBytes(trace *bytes.Buffer) (int64, error) {
	var sum int64
	dec := json.NewDecoder(trace)
	for dec.More() {
		var ev struct {
			Ev    string `json:"ev"`
			Bytes int64  `json:"bytes"`
		}
		if err := dec.Decode(&ev); err != nil {
			return 0, fmt.Errorf("reading training trace: %w", err)
		}
		if ev.Ev == "delta" {
			sum += ev.Bytes
		}
	}
	return sum, nil
}

// freeLoopbackAddr returns a loopback address with a port that was
// free a moment ago.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}
