package main

import (
	"runtime/metrics"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The wrappers below are the traced run's spans: each times calls into
// one module's public seam from this package, so nothing inside the
// program is instrumented. Every workload steps its sessions from one
// goroutine at a time (sequential loops, cluster Workers=1, the
// single-threaded SimNet pump), so one layers value per workload is
// updated without locks.

// layers accumulates host time and counts per layer.
type layers struct {
	// sim layer: host time inside the platform's three stepping calls.
	profileNs, finishNs, applyNs int64
	epochs                       int64 // member epochs (FinishEpoch calls)

	// Public cpusim/memsim counters from the windows the platform
	// returned.
	instr, misses             float64
	memReq, rowHits, svcCount int64
	sumQ, busBusyNs, windowNs float64

	policyNs int64
	decides  int64

	// runner self time: from a member epoch's RunProfile entry to its
	// CombinePower exit, minus the platform and policy calls inside.
	spanStart time.Time
	spanNs    int64

	arbNs     int64
	rebalance int64
}

// profile is the session option that times the sim layer into l.
func (l *layers) profile() runner.SessionOption {
	return runner.WithPlatformWrap(func(p runner.Platform) runner.Platform {
		return &tracedPlatform{Platform: p, l: l}
	})
}

// tracedPlatform times the sim layer behind runner.Platform.
type tracedPlatform struct {
	runner.Platform
	l *layers
}

func (t *tracedPlatform) RunProfile() sim.Profile {
	t0 := time.Now()
	t.l.spanStart = t0
	p := t.Platform.RunProfile()
	t.l.profileNs += int64(time.Since(t0))
	t.l.count(p)
	return p
}

func (t *tracedPlatform) Apply(coreSteps []int, memStep int) error {
	t0 := time.Now()
	err := t.Platform.Apply(coreSteps, memStep)
	t.l.applyNs += int64(time.Since(t0))
	return err
}

func (t *tracedPlatform) FinishEpoch() sim.Profile {
	t0 := time.Now()
	p := t.Platform.FinishEpoch()
	t.l.finishNs += int64(time.Since(t0))
	t.l.epochs++
	t.l.count(p)
	return p
}

// CombinePower is the runner's last platform call of an epoch; it
// closes the member-epoch span.
func (t *tracedPlatform) CombinePower(profile, rest sim.Profile) float64 {
	w := t.Platform.CombinePower(profile, rest)
	t.l.spanNs += int64(time.Since(t.l.spanStart))
	return w
}

func (l *layers) count(p sim.Profile) {
	for _, c := range p.Cores {
		l.instr += c.Counters.Instructions
		l.misses += float64(c.Counters.Misses)
	}
	for _, m := range p.Mem {
		l.memReq += m.Counters.Arrivals
		l.rowHits += m.Counters.RowHits
		l.svcCount += m.Counters.SvcCount
		l.sumQ += m.Counters.SumQ
		l.busBusyNs += m.Counters.BusBusyNs
		l.windowNs += p.WindowNs
	}
}

// tracedPolicy times policy.Policy.Decide (fit, Algorithm 1 and the
// quantize/guard pass).
type tracedPolicy struct {
	policy.Policy
	l *layers
}

func (t *tracedPolicy) Decide(s *policy.Snapshot) (policy.Decision, error) {
	t0 := time.Now()
	d, err := t.Policy.Decide(s)
	t.l.policyNs += int64(time.Since(t0))
	t.l.decides++
	return d, err
}

// wrapPolicy returns p, instrumented when l is non-nil.
func wrapPolicy(p policy.Policy, l *layers) policy.Policy {
	if l == nil {
		return p
	}
	return &tracedPolicy{Policy: p, l: l}
}

// tracedArbiter times cluster.Arbiter rebalancing. It forwards every
// optional seam the coordinators type-assert — IDRebalancer,
// MemberForgetter, FillPassReporter and PredictionErrorReporter — so a
// wrapped history-keeping arbiter keeps its id-keyed state instead of
// silently falling back to positional state.
type tracedArbiter struct {
	inner cluster.Arbiter
	l     *layers
}

var (
	_ cluster.IDRebalancer            = (*tracedArbiter)(nil)
	_ cluster.MemberForgetter         = (*tracedArbiter)(nil)
	_ cluster.FillPassReporter        = (*tracedArbiter)(nil)
	_ cluster.PredictionErrorReporter = (*tracedArbiter)(nil)
)

func (t *tracedArbiter) Name() string { return t.inner.Name() }

func (t *tracedArbiter) Rebalance(budgetW float64, obs []cluster.Observation, grants []float64) {
	t0 := time.Now()
	t.inner.Rebalance(budgetW, obs, grants)
	t.done(t0)
}

func (t *tracedArbiter) RebalanceIDs(budgetW float64, ids []string, obs []cluster.Observation, grants []float64) {
	t0 := time.Now()
	if ir, ok := t.inner.(cluster.IDRebalancer); ok {
		ir.RebalanceIDs(budgetW, ids, obs, grants)
	} else {
		t.inner.Rebalance(budgetW, obs, grants)
	}
	t.done(t0)
}

func (t *tracedArbiter) done(t0 time.Time) {
	t.l.arbNs += int64(time.Since(t0))
	t.l.rebalance++
}

func (t *tracedArbiter) Forget(id string) {
	if f, ok := t.inner.(cluster.MemberForgetter); ok {
		f.Forget(id)
	}
}

func (t *tracedArbiter) FillPasses() int {
	if f, ok := t.inner.(cluster.FillPassReporter); ok {
		return f.FillPasses()
	}
	return 0
}

func (t *tracedArbiter) PredictionErrorW() float64 {
	if p, ok := t.inner.(cluster.PredictionErrorReporter); ok {
		return p.PredictionErrorW()
	}
	return 0
}

// wrapArbiter returns a, instrumented when l is non-nil.
func wrapArbiter(a cluster.Arbiter, l *layers) cluster.Arbiter {
	if l == nil {
		return a
	}
	return &tracedArbiter{inner: a, l: l}
}

// setSimLayers reports the sim, cpusim, memsim, policy and runner
// per-layer metrics accumulated in l.
func (l *layers) setSimLayers(r *result) {
	if l.epochs == 0 {
		return
	}
	ep := float64(l.epochs)
	simNs := float64(l.profileNs + l.finishNs + l.applyNs)
	r.set("sim.profile_ms", float64(l.profileNs)/ep/1e6)
	r.set("sim.finish_ms", float64(l.finishNs)/ep/1e6)
	r.set("sim.apply_us", float64(l.applyNs)/ep/1e3)
	if l.memReq > 0 {
		r.set("sim.host_ns_per_mem_request", simNs/float64(l.memReq))
	}
	if l.instr > 0 {
		r.set("sim.host_ns_per_kinstr", simNs/(l.instr/1e3))
	}
	r.set("cpusim.kinstr_per_epoch", l.instr/1e3/ep)
	r.set("cpusim.misses_per_epoch", l.misses/ep)
	r.set("memsim.requests_per_epoch", float64(l.memReq)/ep)
	if l.svcCount > 0 {
		r.set("memsim.row_hit_ratio", float64(l.rowHits)/float64(l.svcCount))
	}
	if l.memReq > 0 {
		r.set("memsim.queue_len_mean", l.sumQ/float64(l.memReq))
	}
	if l.windowNs > 0 {
		r.set("memsim.bus_util", l.busBusyNs/l.windowNs)
	}
	if l.decides > 0 {
		r.set("policy.decide_us", float64(l.policyNs)/float64(l.decides)/1e3)
	}
	r.set("runner.self_us", float64(l.spanNs-l.profileNs-l.finishNs-l.applyNs-l.policyNs)/ep/1e3)
	if l.rebalance > 0 {
		r.set("cluster.rebalance_us", float64(l.arbNs)/float64(l.rebalance)/1e3)
	}
}

// zeroLayers pre-sets every per-layer metric to 0, the value of a layer
// the workload never calls.
func zeroLayers(r *result) {
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
}

// heapAllocBytes is the process's cumulative heap allocation, read
// without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// modelErrors reports the mean power-model and queueing-model errors of
// policy-run records, in percent: predicted vs measured power over the
// post-decision window, and the Eq. 1 response-time prediction vs the
// measured mean response.
func modelErrors(recs []runner.EpochRecord) (powerPct, respPct float64) {
	var pSum, rSum float64
	var pN, rN int
	for _, e := range recs {
		if e.RestPowerW > 0 && e.PredictedPowerW > 0 {
			pSum += abs(e.PredictedPowerW-e.RestPowerW) / e.RestPowerW
			pN++
		}
		if e.MeasuredRespNs > 0 && e.PredictedRespNs > 0 {
			rSum += abs(e.PredictedRespNs-e.MeasuredRespNs) / e.MeasuredRespNs
			rN++
		}
	}
	if pN > 0 {
		powerPct = pSum / float64(pN) * 100
	}
	if rN > 0 {
		respPct = rSum / float64(rN) * 100
	}
	return powerPct, respPct
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
