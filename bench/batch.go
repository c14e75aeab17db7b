package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"whereroam/internal/experiments"
)

// reproPass is one batch_repro op: a fresh session and every
// registered runner, which is what `roamrepro -experiment all` does.
// The four datasets build first, inside their own spans, so a traced
// pass can tell synthesis from analysis; an untraced pass runs the
// same calls. It returns a digest of every report and the output
// checks that failed.
func reproPass(seed uint64, factor float64, rec *recorder, op int) (digest [sha256.Size]byte, slowest time.Duration, problems []string) {
	root := rec.begin("bench.repro_pass", op, -1)
	defer rec.end(root)
	s := experiments.NewSessionWorkers(seed, factor, 0)
	rec.do("dataset.m2m", op, root, func() { s.M2M() })
	rec.do("dataset.mno", op, root, func() { s.MNO() })
	rec.do("dataset.smip", op, root, func() { s.SMIP() })
	rec.do("dataset.federation", op, root, func() { s.FederationData() })
	h := sha256.New()
	for _, r := range experiments.All() {
		id := rec.begin("experiments."+r.ID, op, root)
		t0 := time.Now()
		rep := r.Run(s)
		slowest = max(slowest, time.Since(t0))
		rec.end(id)
		if len(rep.Values) == 0 {
			problems = append(problems, fmt.Sprintf("runner %s returned no values", r.ID))
		}
		if r.ID == "fed-agreement" && rep.Value("label_consistency") != 1.0 {
			problems = append(problems, fmt.Sprintf("fed-agreement label_consistency = %v, want exactly 1", rep.Value("label_consistency")))
		}
		h.Write([]byte(rep.String()))
	}
	h.Sum(digest[:0])
	return digest, slowest, problems
}

// runBatchRepro times passes until the run's seconds are used. The
// first pass of the process is the set-up: it pays the heap growth
// and lazy package tables a fresh `roamrepro` pays, so it is reported
// as setup_s instead of blurring the median of the warm passes.
func runBatchRepro(cfg config) (*outcome, error) {
	o := &outcome{m: newMeter(), notes: map[string]float64{}}
	defer o.m.close()
	t0 := time.Now()
	want, _, problems := reproPass(cfg.seed, cfg.sz.batchFactor, nil, 0)
	o.setup = time.Since(t0)
	for _, p := range problems {
		o.problem("cold pass: %s", p)
	}
	for start := time.Now(); time.Since(start).Seconds() < cfg.seconds; {
		runtime.GC()
		o.attempted++
		o.m.start()
		t0 := time.Now()
		got, _, problems := reproPass(cfg.seed, cfg.sz.batchFactor, nil, o.attempted)
		d := time.Since(t0)
		o.m.stop()
		if got != want {
			problems = append(problems, "report digest differs from the first pass")
		}
		if len(problems) > 0 {
			o.fail("pass %d: %v", o.attempted, problems)
			continue
		}
		o.ops = append(o.ops, d)
	}
	o.notes["runners"] = float64(len(experiments.All()))
	return o, nil
}
