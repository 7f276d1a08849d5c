package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpusim"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/policy"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fleet-replay and fleet-dist: 256 four-core members replaying traces
// recorded in set-up, so no simulation runs in the measured part and
// the policy, runner, coordinator, arbiter and wire carry the work.
const (
	fleetMembers  = 256
	fleetAgents   = 8
	fleetTraces   = 8  // recorded traces the members share
	fleetRecorded = 16 // epochs per recording; replay wraps around
	fleetEpochs   = 40 // fleet epochs per lifecycle
	fleetEpochNs  = 5e5
	// The global budget as a share of the members' summed peaks, and
	// the share after the mid-run retarget.
	fleetBudget   = 0.6
	fleetRetarget = 0.5
)

// fleetMixes are the recorded workloads; traces fleetTraces/2 and up
// run the same mixes on a two-class heterogeneous machine.
var fleetMixes = []string{"ILP2", "MID2", "MEM2", "MIX1"}

// fleetDigest is the in-process records digest of one lifecycle at
// -seed 1; the distributed run must reproduce the same records.
const fleetDigest = "e6db35b08c68f989"

// bigLittle is the heterogeneous member machine: two performance cores
// and two efficiency cores.
func bigLittle() *sim.MachineSpec {
	return &sim.MachineSpec{
		Name: "bigLITTLE-2+2",
		Classes: []sim.CoreClass{
			{Name: "big", Count: 2},
			{Name: "little", Count: 2,
				Ladder:       dvfs.EfficiencyCoreLadder(),
				Power:        cpusim.PowerConfig{DynMaxW: 1.5, StaticW: 0.2, GateFrac: 0.12},
				ExecCPIScale: 1.25},
		},
	}
}

// fleetTrace is one recorded member run and the configuration that
// replays it.
type fleetTrace struct {
	cfg  runner.Config
	rec  *replay.Recording
	bips float64 // mean recorded throughput, the SLO reference
	// The recorded capped run, its all-max baseline on the same machine
	// and seed, and the app on each core, for norm_perf.
	res, base *runner.Result
	apps      []string
}

// fleetMember is one member of the fleet, in announce order.
type fleetMember struct {
	id     string
	agent  string
	trace  int
	target float64 // TargetBIPS, 0 for no contract
}

type fleet struct {
	traces  []*fleetTrace
	members []fleetMember
	peak    float64 // Σ member peaks
}

// buildFleet records the trace pool and lays out the members. Member
// order is agent-major — the order the distributed coordinator admits
// announces in — so both coordinators produce the same record lines.
func buildFleet(seed int64) (*fleet, error) {
	f := &fleet{}
	for t := 0; t < fleetTraces; t++ {
		mix, err := workload.MixByName(fleetMixes[t%len(fleetMixes)])
		if err != nil {
			return nil, err
		}
		sc := sim.DefaultConfig(4)
		sc.EpochNs = fleetEpochNs
		sc.ProfileNs = fleetEpochNs / 10
		sc.Seed = mix64(seed, uint64(100+t))
		if t >= fleetTraces/2 {
			sc.Machine = bigLittle()
		}
		// Recordings capped at 50–80% of peak spread the members' draw.
		cfg := runner.Config{Sim: sc, Mix: mix, BudgetFrac: 0.5 + 0.1*float64(t%4), Epochs: fleetRecorded, Policy: policy.NewFastCap()}
		var recd *replay.Recorder
		ses, err := runner.NewSession(cfg, runner.WithPlatformWrap(func(p runner.Platform) runner.Platform {
			recd = replay.NewRecorder(p)
			return recd
		}))
		if err != nil {
			return nil, err
		}
		for {
			if _, err := ses.Step(context.Background()); errors.Is(err, runner.ErrDone) {
				break
			} else if err != nil {
				return nil, err
			}
		}
		ft := &fleetTrace{rec: recd.Recording(), res: ses.Result()}
		instr := 0.0
		for _, v := range ft.res.TotalInstr {
			instr += v
		}
		ft.bips = cluster.DeriveBIPS(instr/fleetRecorded, fleetEpochNs)
		cfg.Policy = nil
		if ft.base, err = runner.Run(cfg); err != nil {
			return nil, err
		}
		if ft.apps, err = coreApps(cfg); err != nil {
			return nil, err
		}
		cfg.Epochs = fleetEpochs
		ft.cfg = cfg
		f.traces = append(f.traces, ft)
	}
	for a := 0; a < fleetAgents; a++ {
		for i := a; i < fleetMembers; i += fleetAgents {
			m := fleetMember{id: "m" + strconv.Itoa(i), agent: "a" + strconv.Itoa(a)}
			// A quarter of the members run the heterogeneous machine, a
			// quarter carry a throughput contract near their recorded
			// rate, so some meet it and some do not.
			switch i % 4 {
			case 0:
				m.trace = fleetTraces/2 + (i/4)%(fleetTraces/2)
			case 1:
				m.trace = (i / 4) % (fleetTraces / 2)
				m.target = f.traces[m.trace].bips * (0.9 + 0.2*float64((i/4)%2))
			default:
				m.trace = (i / 4) % (fleetTraces / 2)
			}
			f.members = append(f.members, m)
			f.peak += f.traces[m.trace].rec.PeakW
		}
	}
	return f, nil
}

// session builds member i's replaying session.
func (f *fleet) session(i int, lay *layers) (*runner.Session, error) {
	t := f.traces[f.members[i].trace]
	plat, err := replay.New(t.rec)
	if err != nil {
		return nil, err
	}
	cfg := t.cfg
	cfg.Policy = wrapPolicy(policy.NewFastCap(), lay)
	opts := []runner.SessionOption{runner.WithPlatform(plat)}
	if lay != nil {
		opts = append(opts, lay.profile())
	}
	return runner.NewSession(cfg, opts...)
}

// coordinator builds the in-process cluster over fresh member sessions.
func (f *fleet) coordinator(lay *layers) (*cluster.Coordinator, error) {
	members := make([]cluster.Member, len(f.members))
	for i, m := range f.members {
		ses, err := f.session(i, lay)
		if err != nil {
			return nil, err
		}
		members[i] = cluster.Member{ID: m.id, TargetBIPS: m.target, Session: ses}
	}
	arb := wrapArbiter(cluster.NewPredictiveArbiter(), lay)
	return cluster.New(cluster.Config{BudgetW: fleetBudget * f.peak, Arbiter: arb, Workers: 1}, members)
}

// budgetAt is the global budget for fleet epoch e: re-asserted every
// epoch, as a supervising controller does, and changed halfway.
func (f *fleet) budgetAt(e int) float64 {
	if e >= fleetEpochs/2 {
		return fleetRetarget * f.peak
	}
	return fleetBudget * f.peak
}

// runInProcess drives one in-process lifecycle, setting each epoch's
// budget before stepping it, and returns the records. onEpoch receives
// each Step's duration and the retarget latency: from the SetBudgetW
// call to the end of the epoch it governs.
func (f *fleet) runInProcess(c *cluster.Coordinator, onEpoch func(step, retarget time.Duration, err error)) ([]cluster.EpochRecord, error) {
	var recs []cluster.EpochRecord
	for e := 0; ; e++ {
		tr := time.Now()
		setErr := c.SetBudgetW(f.budgetAt(e))
		t0 := time.Now()
		rec, err := c.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		onEpoch(time.Since(t0), time.Since(tr), setErr)
		recs = append(recs, rec)
	}
}

// checkFleet verifies the cluster invariants on a lifecycle's records:
// Σgrants ≤ budget + ε, every grant within [floor, peak], and member
// epochs strictly increasing.
func (f *fleet) checkFleet(r *result, recs []cluster.EpochRecord) {
	peaks := make(map[string]float64, len(f.members))
	for _, m := range f.members {
		peaks[m.id] = f.traces[m.trace].rec.PeakW
	}
	last := map[string]int{}
	for _, rec := range recs {
		r.check(rec.GrantedW <= rec.BudgetW*(1+1e-9), "epoch %d grants %g W above the %g W budget", rec.Epoch, rec.GrantedW, rec.BudgetW)
		for _, m := range rec.Members {
			peak := peaks[m.ID]
			floor := cluster.DefaultFloorFrac * peak
			r.check(m.GrantW >= floor*(1-1e-9) && m.GrantW <= peak*(1+1e-9),
				"epoch %d member %s grant %g W outside [%g, %g]", rec.Epoch, m.ID, m.GrantW, floor, peak)
			prev, seen := last[m.ID]
			r.check(!seen || m.Epoch > prev, "epoch %d member %s epoch %d after %d", rec.Epoch, m.ID, m.Epoch, prev)
			last[m.ID] = m.Epoch
		}
	}
	r.check(len(last) == len(f.members), "%d of %d members reported", len(last), len(f.members))
}

// fleetQuality sets the sim-valued metrics of one lifecycle's records,
// identical for a given seed on every run: the fleet's summed draw
// against the global budget in force, the granted share of the budget,
// and the SLO events.
func (f *fleet) fleetQuality(r *result, recs []cluster.EpochRecord) {
	var over overshoot
	granted, events := 0.0, 0
	for _, rec := range recs {
		draw := 0.0
		for _, m := range rec.Members {
			draw += m.PowerW
		}
		over.add(draw, rec.BudgetW)
		granted += rec.GrantedW / rec.BudgetW
		events += len(rec.Events)
	}
	r.set("policy.cap_overshoot_pct", over.pct())
	r.set("cluster.granted_frac", granted/float64(len(recs)))
	r.set("cluster.slo_events", float64(events))
}

func runFleetReplay(o options) (*result, error) {
	r := newResult()
	f, err := timedSetup(r, func() (*fleet, error) { return buildFleet(o.seed) }, nil)
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
		stepTime         time.Duration
		fleetEpochsRun   int
		firstDigest      string
		allocBytes       uint64
	)
	start := time.Now()
	epochs, epochMs, retargetMs := newTimeline(start), newTimeline(start), newTimeline(start)
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for life := 0; life == 0 || time.Now().Before(deadline); life++ {
		// Every lifecycle starts from a collected heap, so its
		// allocation-heavy creation does not inherit a collection cycle
		// the previous lifecycle left running.
		runtime.GC()
		alloc0 := heapAllocBytes()
		t0 := time.Now()
		c, err := f.coordinator(lay)
		createMs.add(time.Since(t0))
		r.op(err)
		if err != nil {
			return nil, err
		}
		recs, err := f.runInProcess(c, func(step, retarget time.Duration, err error) {
			now := time.Now()
			epochMs.addDur(now, step)
			retargetMs.addDur(now, retarget)
			epochs.add(now, 1)
			stepTime += step
			r.op(err)
			r.op(nil)
		})
		if err != nil {
			return nil, err
		}
		c.Results()
		lifeMs.add(time.Since(t0))
		fleetEpochsRun += len(recs)
		allocBytes += heapAllocBytes() - alloc0

		d := newDigest()
		d.cluster(recs)
		sum := d.sum()
		if firstDigest == "" {
			firstDigest = sum
			f.checkFleet(r, recs)
			f.fleetQuality(r, recs)
		}
		r.check(sum == firstDigest, "fleet-replay lifecycle %d digest %s differs from the first lifecycle's %s", life, sum, firstDigest)
	}
	if o.seed == 1 {
		r.check(firstDigest == fleetDigest, "fleet records digest %s at seed 1, want %s", firstDigest, fleetDigest)
	}
	fmt.Printf("fleet-replay: %d fleet epochs, records digest %s\n", fleetEpochsRun, firstDigest)
	f.setPerfQuality(r)

	rate := epochs.rate()
	if lay != nil {
		lay.setSimLayers(r)
		r.set("cluster.self_ms", float64(int64(stepTime)-lay.spanNs-lay.arbNs)/float64(fleetEpochsRun)/1e6)
		r.set("cluster.alloc_kb_per_epoch", float64(allocBytes)/float64(fleetEpochsRun)/1024)
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

// setPerfQuality scores every member's recorded capped run against the
// all-max baseline of the same machine and seed. Replay reproduces the
// recorded windows whatever the grants, so a member's progress is its
// trace's.
func (f *fleet) setPerfQuality(r *result) {
	var q perfQuality
	for _, m := range f.members {
		t := f.traces[m.trace]
		q.add(t.res, t.base, t.apps)
	}
	q.set(r)
}

// memberSpec is the opaque session spec agents ship: the member index.
type memberSpec struct {
	Member int `json:"member"`
}

// distLifecycle is one fleet run over dist.Coordinator and eight
// dist.Agents on a SimNet.
type distLifecycle struct {
	coord *dist.Coordinator
	tr    *wireTransport
}

// startDist builds the coordinator and agents, and starts the agents'
// announces.
func (f *fleet) startDist(seed int64, lay *layers, trace bool) (*distLifecycle, error) {
	net := dist.NewSimNet(dist.SimConfig{Seed: mix64(seed, 200)})
	arb := wrapArbiter(cluster.NewPredictiveArbiter(), lay)
	coord, err := dist.NewCoordinator(dist.Config{BudgetW: fleetBudget * f.peak, Arbiter: arb, Expect: len(f.members)})
	if err != nil {
		return nil, err
	}
	tr := &wireTransport{Transport: net, trace: trace}
	tr.retarget = func(e int) error { return coord.SetBudgetW(f.budgetAt(e)) }
	byAgent := map[string][]dist.MemberSpec{}
	var agents []string
	for i, m := range f.members {
		spec, err := json.Marshal(memberSpec{i})
		if err != nil {
			return nil, err
		}
		if _, ok := byAgent[m.agent]; !ok {
			agents = append(agents, m.agent)
		}
		byAgent[m.agent] = append(byAgent[m.agent], dist.MemberSpec{ID: m.id, TargetBIPS: m.target, Spec: spec})
	}
	build := func(raw json.RawMessage) (*runner.Session, error) {
		var sp memberSpec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, err
		}
		if sp.Member < 0 || sp.Member >= len(f.members) {
			return nil, fmt.Errorf("member index %d out of range", sp.Member)
		}
		return f.session(sp.Member, lay)
	}
	for _, name := range agents {
		a, err := dist.NewAgent(dist.AgentConfig{
			Name: name, Members: byAgent[name], Build: build,
			Send: tr.sender(net.Sender(name)), Clock: net.Clock(name),
		})
		if err != nil {
			return nil, err
		}
		net.Register(name, a.Handle, nil)
		a.Start()
	}
	return &distLifecycle{coord: coord, tr: tr}, nil
}

func runFleetDist(o options) (*result, error) {
	r := newResult()
	// Set-up: the recordings plus the in-process reference lifecycle
	// the distributed records must reproduce.
	type state struct {
		f      *fleet
		digest string
	}
	st, err := timedSetup(r, func() (state, error) {
		f, err := buildFleet(o.seed)
		if err != nil {
			return state{}, err
		}
		c, err := f.coordinator(nil)
		if err != nil {
			return state{}, err
		}
		recs, err := f.runInProcess(c, func(time.Duration, time.Duration, error) {})
		if err != nil {
			return state{}, err
		}
		d := newDigest()
		d.cluster(recs)
		return state{f, d.sum()}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	f := st.f
	var lay *layers
	if o.trace {
		zeroLayers(r)
		lay = &layers{}
	}
	var (
		lifeMs, createMs msSamples
		recvTime         time.Duration
		fleetEpochsRun   int
		allocBytes       uint64
		wire             wireStats
	)
	start := time.Now()
	epochs, epochMs, retargetMs := newTimeline(start), newTimeline(start), newTimeline(start)
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for life := 0; life == 0 || time.Now().Before(deadline); life++ {
		runtime.GC() // as in fleet-replay
		alloc0 := heapAllocBytes()
		t0 := time.Now()
		dl, err := f.startDist(o.seed, lay, o.trace)
		r.op(err)
		if err != nil {
			return nil, err
		}
		err = dl.coord.Run(dl.tr)
		end := time.Now()
		r.op(err)
		if err != nil {
			return nil, err
		}
		tr := dl.tr
		createMs.add(tr.firstGrant.Sub(t0))
		// Epoch e runs from its first grant to epoch e+1's.
		for i := 1; i < len(tr.grantAt); i++ {
			epochMs.addDur(tr.grantAt[i], tr.grantAt[i].Sub(tr.grantAt[i-1]))
			epochs.add(tr.grantAt[i], 1)
			r.op(nil)
		}
		epochs.add(end, 1)
		// The budget set as epoch e's grants go out governs epoch e+1,
		// which ends when epoch e+2's grants go out. (The last epochs
		// end in the result drain and give no sample.)
		for e := 0; e+2 < len(tr.grantAt); e++ {
			retargetMs.addDur(tr.grantAt[e+2], tr.grantAt[e+2].Sub(tr.retargetAt[e]))
			r.op(nil)
		}
		r.op(tr.retargetErr)
		lifeMs.add(end.Sub(t0))
		recs := dl.coord.Records()
		fleetEpochsRun += len(recs)
		allocBytes += heapAllocBytes() - alloc0
		recvTime += tr.recvTime
		wire.add(tr.measure())

		d := newDigest()
		d.cluster(recs)
		sum := d.sum()
		r.check(sum == st.digest, "fleet-dist lifecycle %d records digest %s differ from the in-process %s", life, sum, st.digest)
		if life == 0 {
			f.checkFleet(r, recs)
			f.fleetQuality(r, recs)
			for _, res := range dl.coord.Results() {
				r.check(res.Result != nil && len(res.Result.Epochs) == fleetEpochs, "member %s result missing or short", res.ID)
			}
		}
	}
	if o.seed == 1 {
		r.check(st.digest == fleetDigest, "fleet records digest %s at seed 1, want %s", st.digest, fleetDigest)
	}
	fmt.Printf("fleet-dist: %d fleet epochs, records digest %s\n", fleetEpochsRun, st.digest)
	f.setPerfQuality(r)

	rate := epochs.rate()
	if lay != nil {
		ep := float64(fleetEpochsRun)
		lay.setSimLayers(r)
		r.set("dist.recv_ms", float64(int64(recvTime)-lay.spanNs)/ep/1e6)
		r.set("dist.msgs_per_epoch", float64(wire.msgs)/ep)
		r.set("dist.wire_kb_per_epoch", float64(wire.bytes)/ep/1024)
		if wire.msgs > 0 {
			r.set("dist.encode_us", float64(wire.encodeNs)/float64(wire.msgs)/1e3)
			r.set("dist.decode_us", float64(wire.decodeNs)/float64(wire.msgs)/1e3)
		}
		r.set("dist.alloc_kb_per_epoch", float64(allocBytes)/ep/1024)
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

// wireStats counts observed wire traffic.
type wireStats struct {
	msgs, bytes        int64
	encodeNs, decodeNs int64
}

func (w *wireStats) add(o wireStats) {
	w.msgs += o.msgs
	w.bytes += o.bytes
	w.encodeNs += o.encodeNs
	w.decodeNs += o.decodeNs
}

// wireTransport wraps the coordinator's dist.Transport. Untraced, it only
// timestamps each epoch's first grant and fires the mid-run retarget on
// the coordinator's own goroutine, so it lands at the same boundary as
// the in-process run's. Traced, it also times Recv and keeps every frame
// either side sends; measure then re-encodes them with dist.EncodeMsg
// and dist.DecodeMsg after the run, outside the timed calls.
type wireTransport struct {
	dist.Transport
	trace bool

	grantAt    []time.Time
	firstGrant time.Time

	// retarget sets the budget for a fleet epoch; Send calls it for
	// epoch e+1 as epoch e's grants go out, after the coordinator read
	// epoch e's budget.
	retarget    func(e int) error
	retargetAt  []time.Time
	retargetErr error

	recvTime time.Duration
	frames   []dist.Msg
}

func (t *wireTransport) Send(agent string, m dist.Msg) {
	if m.Type == dist.TypeGrant && m.Epoch >= len(t.grantAt) {
		now := time.Now()
		if m.Epoch == 0 {
			t.firstGrant = now
		}
		t.grantAt = append(t.grantAt, now)
		t.retargetAt = append(t.retargetAt, now)
		if err := t.retarget(m.Epoch + 1); err != nil && t.retargetErr == nil {
			t.retargetErr = err
		}
	}
	if t.trace {
		t.frames = append(t.frames, m)
	}
	t.Transport.Send(agent, m)
}

func (t *wireTransport) Recv(deadline int64) (dist.Envelope, bool, error) {
	if !t.trace {
		return t.Transport.Recv(deadline)
	}
	t0 := time.Now()
	env, timeout, err := t.Transport.Recv(deadline)
	t.recvTime += time.Since(t0)
	return env, timeout, err
}

// sender wraps an agent's send function so agent-to-coordinator frames
// are kept too.
func (t *wireTransport) sender(send func(dist.Msg) error) func(dist.Msg) error {
	if !t.trace {
		return send
	}
	return func(m dist.Msg) error {
		t.frames = append(t.frames, m)
		return send(m)
	}
}

// measure encodes and decodes every kept frame.
func (t *wireTransport) measure() wireStats {
	var w wireStats
	for _, m := range t.frames {
		t0 := time.Now()
		b, err := dist.EncodeMsg(m)
		t1 := time.Now()
		if err != nil {
			continue
		}
		_, _ = dist.DecodeMsg(b)
		w.decodeNs += int64(time.Since(t1))
		w.encodeNs += int64(t1.Sub(t0))
		w.msgs++
		w.bytes += int64(len(b))
	}
	return w
}
