package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sim-paper: FastCap on the paper's 16-core server, one session per
// Table III class, stepped round-robin by one goroutine. The event
// engine, cpusim and memsim do almost all of the work.
const (
	simCores    = 16
	simEpochNs  = 5e5 // 0.5 ms control epochs, 50 µs profiling
	simEpochs   = 20  // epochs per session lifecycle
	simBudget   = 0.6
	simRetarget = 0.5 // cap after the mid-run retarget
)

// simClasses is one Table III mix per workload class: ILP1 is
// cpusim-bound, MEM1 memsim-bound, MID1 and MIX3 in between.
var simClasses = []string{"ILP1", "MID1", "MEM1", "MIX3"}

// simPaperDigest is the records digest of one lifecycle at -seed 1. A
// change that moves it changed what the simulator or controller computes.
const simPaperDigest = "751b7be27a6dfd88"

type simClass struct {
	cfg     runner.Config // Policy nil: the caller installs a fresh one
	apps    []string
	ladders []int // per-core ladder length
	base    *runner.Result
}

// simPaperClasses builds the four class configurations for a seed.
func simPaperClasses(seed int64) ([]*simClass, error) {
	var out []*simClass
	for i, name := range simClasses {
		mix, err := workload.MixByName(name)
		if err != nil {
			return nil, err
		}
		sc := sim.DefaultConfig(simCores)
		sc.EpochNs = simEpochNs
		sc.ProfileNs = simEpochNs / 10
		sc.Seed = mix64(seed, uint64(i))
		layout, err := sc.Layout()
		if err != nil {
			return nil, err
		}
		c := &simClass{cfg: runner.Config{Sim: sc, Mix: mix, BudgetFrac: simBudget, Epochs: simEpochs}}
		if c.apps, err = coreApps(c.cfg); err != nil {
			return nil, err
		}
		for j := 0; j < simCores; j++ {
			c.ladders = append(c.ladders, layout.Ladder(j).Len())
		}
		out = append(out, c)
	}
	return out, nil
}

func runSimPaper(o options) (*result, error) {
	r := newResult()
	// Set-up: the all-max baselines the capped runs normalize against.
	classes, err := timedSetup(r, func() ([]*simClass, error) {
		cls, err := simPaperClasses(o.seed)
		if err != nil {
			return nil, err
		}
		for _, c := range cls {
			if c.base, err = runner.Run(c.cfg); err != nil {
				return nil, err
			}
		}
		return cls, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var lay *layers
	if o.trace {
		zeroLayers(r)
		lay = &layers{}
	}
	var (
		lifeMs, createMs msSamples
		memberEpochs     int
		firstDigest      string
		allocBytes       uint64
	)
	ctx := context.Background()
	sessions := make([]*runner.Session, len(classes))
	start := time.Now()
	epochs, epochMs, retargetMs := newTimeline(start), newTimeline(start), newTimeline(start)
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for life := 0; life == 0 || time.Now().Before(deadline); life++ {
		runtime.GC() // as in fleet-replay
		alloc0 := heapAllocBytes()
		t0 := time.Now()
		for i, c := range classes {
			cfg := c.cfg
			cfg.Policy = wrapPolicy(policy.NewFastCap(), lay)
			var opts []runner.SessionOption
			if lay != nil {
				opts = append(opts, lay.profile())
			}
			tc := time.Now()
			ses, err := runner.NewSession(cfg, opts...)
			createMs.add(time.Since(tc))
			r.op(err)
			if err != nil {
				return nil, err
			}
			sessions[i] = ses
		}
		for e := 0; e < simEpochs; e++ {
			// Every epoch re-asserts each session's budget, as a
			// supervising controller does; halfway it changes. A
			// retarget takes effect at the next epoch boundary, so its
			// latency runs to the end of the epoch it governs.
			frac := simBudget
			if e >= simEpochs/2 {
				frac = simRetarget
			}
			tr := time.Now()
			for _, ses := range sessions {
				r.op(ses.SetBudgetFrac(frac))
			}
			te := time.Now()
			for i, ses := range sessions {
				rec, err := ses.Step(ctx)
				r.op(err)
				if err != nil {
					return nil, fmt.Errorf("%s epoch %d: %w", simClasses[i], e, err)
				}
				if life == 0 {
					checkSteps(r, rec, classes[i].ladders, classes[i].cfg.Sim.MemLadder.Len())
				}
			}
			now := time.Now()
			epochMs.addDur(now, now.Sub(te))
			retargetMs.addDur(now, now.Sub(tr))
			epochs.add(now, float64(len(sessions)))
			memberEpochs += len(sessions)
		}
		results := make([]*runner.Result, len(sessions))
		for i, ses := range sessions {
			results[i] = ses.Result()
		}
		lifeMs.add(time.Since(t0))
		allocBytes += heapAllocBytes() - alloc0

		d := newDigest()
		for _, res := range results {
			d.session(res.Epochs)
		}
		sum := d.sum()
		if firstDigest == "" {
			firstDigest = sum
			simPaperQuality(r, classes, results)
		}
		r.check(sum == firstDigest, "sim-paper lifecycle %d digest %s differs from the first lifecycle's %s", life, sum, firstDigest)
	}
	if o.seed == 1 {
		r.check(firstDigest == simPaperDigest, "sim-paper records digest %s at seed 1, want %s", firstDigest, simPaperDigest)
	}
	fmt.Printf("sim-paper: %d member epochs, records digest %s\n", memberEpochs, firstDigest)

	rate := epochs.rate()
	if lay != nil {
		lay.setSimLayers(r)
		r.set("runner.alloc_kb_per_epoch", float64(allocBytes)/float64(memberEpochs)/1024)
		r.set("trace.epochs_per_s", rate)
		return r, nil
	}
	r.set("epochs_per_s", rate)
	r.setWindowed("epoch_ms", epochMs)
	r.set("lifecycle_ms_p50", median(lifeMs))
	r.set("create_ms_p50", median(createMs))
	r.setWindowed("retarget_ms", retargetMs)
	r.set("max_rss_mb", maxRSSMB())
	return r, nil
}

// checkSteps verifies a decision lies on each core's own ladder and the
// memory ladder.
func checkSteps(r *result, rec runner.EpochRecord, ladders []int, memLen int) {
	for i, st := range rec.CoreSteps {
		r.check(st >= 0 && st < ladders[i], "epoch %d core %d step %d off its %d-step ladder", rec.Epoch, i, st, ladders[i])
	}
	r.check(rec.MemStep >= 0 && rec.MemStep < memLen, "epoch %d memory step %d off the %d-step ladder", rec.Epoch, rec.MemStep, memLen)
}

// simPaperQuality sets the sim-valued end-to-end metrics from the first
// lifecycle, which is identical for a given seed on every run.
func simPaperQuality(r *result, classes []*simClass, results []*runner.Result) {
	var over overshoot
	var q perfQuality
	var recs []runner.EpochRecord
	for i, res := range results {
		for _, e := range res.Epochs {
			over.add(e.AvgPowerW, e.BudgetW)
		}
		q.add(res, classes[i].base, classes[i].apps)
		recs = append(recs, res.Epochs...)
	}
	r.set("policy.cap_overshoot_pct", over.pct())
	q.set(r)
	pErr, rErr := modelErrors(recs)
	r.set("power.model_err_pct", pErr)
	r.set("qmodel.resp_err_pct", rErr)
}
