package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"topmine/internal/synth"
	"topmine/internal/textproc"
	"topmine/internal/xrand"
)

// Inputs are generated from the workload seed into the run's own
// directory, so the program only ever sees generated files and the
// same seed gives byte-identical inputs.

// writeDocs generates docs raw documents of spec from seed and writes
// them one per line to dir/name, returning the path.
func writeDocs(dir, name string, spec synth.DomainSpec, docs int, seed uint64) (string, error) {
	path := filepath.Join(dir, name)
	if err := writeLines(path, synth.Generate(spec, synth.Options{Docs: docs, Seed: seed})); err != nil {
		return "", err
	}
	return path, nil
}

func writeLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, l := range lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Wide-vocabulary spec sizes: wideTopics × wideUnigrams distinct stems,
// so the K=200 word-topic table (V×K int32 counts, about 8 MB at 10k
// stems) is far larger than L2.
const (
	wideTopics   = 40
	wideUnigrams = 250
	widePhrases  = 8
)

// wideVocabSpec is a synthetic domain with tens of thousands of stems.
// The built-in domains have a few hundred, which keeps every count
// table cache-resident; this one does not. Its words are invented
// consonant-vowel strings that the stemmer leaves unchanged and that
// are no stop words, so every one is its own stem.
func wideVocabSpec() synth.DomainSpec {
	words := pseudoWords(wideTopics*wideUnigrams + 40)
	spec := synth.DomainSpec{
		Name:         "wide-vocab",
		Background:   words[wideTopics*wideUnigrams:],
		DocLenMean:   60,
		DocLenJitter: 25,
		SentenceLen:  10,
		CommaRate:    0.05,
		StopwordRate: 0.25,
		PhraseRate:   0.20,
		BackgdRate:   0.08,
		TopicAlpha:   0.2,
	}
	for k := 0; k < wideTopics; k++ {
		uni := words[k*wideUnigrams : (k+1)*wideUnigrams]
		t := synth.Topic{Name: fmt.Sprintf("topic%02d", k), Unigrams: uni}
		// Phrases reuse mid-rank topic words, as real collocations
		// reuse a topic's vocabulary.
		for p := 0; p < widePhrases; p++ {
			phrase := uni[20+2*p] + " " + uni[21+2*p]
			if p%3 == 2 {
				phrase += " " + uni[60+p]
			}
			t.Phrases = append(t.Phrases, phrase)
		}
		spec.Topics = append(spec.Topics, t)
	}
	return spec
}

// pseudoWords returns n distinct invented words, each its own Porter
// stem and not a stop word, in a fixed order.
func pseudoWords(n int) []string {
	const cons, vows = "bdfgkmprtvz", "aiou"
	var all []string
	for _, a := range cons {
		for _, b := range vows {
			for _, c := range cons {
				for _, d := range vows {
					for _, e := range cons {
						all = append(all, string([]rune{a, b, c, d, e}))
					}
				}
			}
		}
	}
	r := xrand.New(20140901)
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([]string, 0, n)
	for _, w := range all {
		if len(out) == n {
			break
		}
		if textproc.Stem(w) == w && !textproc.IsStopword(w) {
			out = append(out, w)
		}
	}
	if len(out) < n {
		panic(fmt.Sprintf("perfbench: only %d pseudo-words available, need %d", len(out), n))
	}
	return out
}
