package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// digest hashes epoch records bit for bit, so two runs compare exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) f(v float64) { d.i(int64(math.Float64bits(v))) }

func (d *digest) i(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) s(v string) {
	d.i(int64(len(v)))
	d.h.Write([]byte(v))
}

// session hashes every field of a session's epoch records.
func (d *digest) session(recs []runner.EpochRecord) {
	d.i(int64(len(recs)))
	for _, e := range recs {
		d.i(int64(e.Epoch))
		for _, v := range [...]float64{e.AvgPowerW, e.CoresW, e.MemW, e.BudgetW, e.PeakW,
			e.PredictedPowerW, e.RestPowerW, e.PredictedRespNs, e.MeasuredRespNs} {
			d.f(v)
		}
		d.i(int64(e.MemStep))
		for i := range e.CoreSteps {
			d.i(int64(e.CoreSteps[i]))
			d.f(e.Instr[i])
			d.f(e.CoreW[i])
		}
	}
}

// cluster hashes every field of cluster epoch records.
func (d *digest) cluster(recs []cluster.EpochRecord) {
	d.i(int64(len(recs)))
	for _, r := range recs {
		d.i(int64(r.Epoch))
		d.f(r.BudgetW)
		d.f(r.GrantedW)
		d.i(int64(len(r.Members)))
		for _, m := range r.Members {
			d.s(m.ID)
			d.i(int64(m.Epoch))
			for _, v := range [...]float64{m.GrantW, m.PowerW, m.SlackW, m.ThrottleFrac, m.Instr, m.BIPS, m.TargetBIPS} {
				d.f(v)
			}
			if m.SLOViolated {
				d.i(1)
			}
			if m.Done {
				d.i(2)
			}
		}
		d.i(int64(len(r.Events)))
		for _, ev := range r.Events {
			d.s(ev.Member)
			d.s(ev.Type)
		}
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// overshoot is one cap-quality accumulator: the mean positive excess of
// epoch power over the cap in force, as a share of the cap.
type overshoot struct {
	sum float64
	n   int
}

func (o *overshoot) add(powerW, capW float64) {
	if powerW > capW {
		o.sum += (powerW - capW) / capW
	}
	o.n++
}

func (o *overshoot) pct() float64 {
	if o.n == 0 {
		return 0
	}
	return o.sum / float64(o.n) * 100
}

// perfQuality accumulates the paper's normalized performance over runs:
// per app, baseline time per instruction over the capped run's (1 means
// no slowdown), averaged over the cores running that app.
type perfQuality struct {
	normSum, spreadSum float64
	runs               int
}

// add scores one capped run against its all-max baseline. apps[i] names
// the application on core i.
func (q *perfQuality) add(run, base *runner.Result, apps []string) {
	sums := map[string]float64{}
	counts := map[string]int{}
	var order []string
	for i := range run.NsPerInstr {
		if run.NsPerInstr[i] <= 0 || base.NsPerInstr[i] <= 0 {
			continue
		}
		if counts[apps[i]] == 0 {
			order = append(order, apps[i])
		}
		sums[apps[i]] += base.NsPerInstr[i] / run.NsPerInstr[i]
		counts[apps[i]]++
	}
	if len(order) == 0 {
		return
	}
	lo, hi, all := math.Inf(1), math.Inf(-1), 0.0
	for _, a := range order {
		v := sums[a] / float64(counts[a])
		lo, hi, all = math.Min(lo, v), math.Max(hi, v), all+v
	}
	q.normSum += all / float64(len(order))
	q.spreadSum += hi - lo
	q.runs++
}

func (q *perfQuality) set(r *result) {
	if q.runs == 0 {
		return
	}
	r.set("norm_perf", q.normSum/float64(q.runs))
	r.set("policy.perf_spread", q.spreadSum/float64(q.runs))
}

// coreApps names the application on each core of cfg's machine.
func coreApps(cfg runner.Config) ([]string, error) {
	layout, err := cfg.Sim.Layout()
	if err != nil {
		return nil, err
	}
	if p := layout.Placement(); len(p) > 0 {
		return p, nil
	}
	wl, err := layout.Workload(cfg.Mix, cfg.Mix.Name, cfg.Sim.Cores)
	if err != nil {
		return nil, err
	}
	apps := make([]string, len(wl.Apps))
	for i, a := range wl.Apps {
		apps[i] = a.Name
	}
	return apps, nil
}

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
