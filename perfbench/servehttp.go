package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
)

// serve-http: a live fastcapd on loopback with two closed-loop tenants,
// each on one goroutine and one keep-alive connection. Both scheduler
// workers stay busy stepping, so control calls queue for a CPU.
const (
	serveTenants  = 2
	serveEpochs   = 20
	serveBudget   = 0.6
	serveRetarget = 0.5
	// Every serveSampleEvery-th lifecycle of a tenant is checked
	// against a solo runner.Session of the same request.
	serveSampleEvery = 8
	// The first serveQualityLives lifecycles of each tenant give the
	// sim-valued metrics.
	serveQualityLives = 2
)

// serveRequest is tenant k's lifecycle l request.
func serveRequest(seed int64, k, l int) serve.Request {
	return serve.Request{Mix: "MIX3", BudgetFrac: serveBudget, Cores: 4, Epochs: serveEpochs,
		EpochMs: 0.5, Seed: mix64(seed, uint64(1000*(k+1)+l))}
}

// daemon is a running fastcapd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *lineWatch
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches fastcapd on an ephemeral loopback port and waits
// until /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no fastcapd binary (-fastcapd)")
	}
	w := &lineWatch{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	cmd.Stdout = io.Discard
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, log: w}
	select {
	case addr := <-w.found:
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("fastcapd did not report its address: %s", w.text())
	}
	for i := 0; ; i++ {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if i == 300 {
			d.stop()
			return nil, fmt.Errorf("fastcapd not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("fastcapd ignored SIGTERM")
	}
}

// maxRSSMB reads the daemon's peak resident set size.
func (d *daemon) maxRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// lineWatch collects the daemon's log and reports its listen address.
type lineWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	sent  bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 1<<16 {
		w.buf.Write(p)
	}
	if !w.sent {
		if m := listenRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found <- string(m[1])
			w.sent = true
		}
	}
	return len(p), nil
}

func (w *lineWatch) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// tenant is one closed-loop client with its own keep-alive connection.
type tenant struct {
	k      int
	base   string
	client *http.Client

	createMs, lifeMs, scrapeMs msSamples
	// records stamps each received epoch record; epochMs is each
	// lifecycle's create-to-last-record time per epoch.
	records, epochMs, retargetMs *timeline
	scrapeBytes, streamBytes     int64
	lives                        int
	samples                      []servedSample
	ops                          int // operations attempted
	errs                         []error
}

// servedSample is one lifecycle kept for the serve ↔ solo check and the
// sim-valued metrics.
type servedSample struct {
	life  int
	lines [][]byte // raw NDJSON record lines
	res   *runner.Result
}

func newTenant(k int, base string, start time.Time) *tenant {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &tenant{k: k, base: base, client: &http.Client{Transport: tr, Timeout: time.Minute},
		records: newTimeline(start), epochMs: newTimeline(start), retargetMs: newTimeline(start)}
}

// do sends one request and returns the body of a 2xx response.
func (t *tenant) do(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// lifecycle runs create → retarget → stream to the end → result →
// /metrics scrape → delete, in order on the tenant's connection, and
// reports whether an operation failed.
func (t *tenant) lifecycle(seed int64, l int) (failed bool) {
	fail := func(err error) bool {
		t.errs = append(t.errs, fmt.Errorf("tenant %d lifecycle %d: %w", t.k, l, err))
		return true
	}
	sample := l%serveSampleEvery == 0 || l < serveQualityLives
	t0 := time.Now()
	t.ops++
	b, err := t.do(http.MethodPost, "/sessions", serveRequest(seed, t.k, l))
	if err != nil {
		return fail(err)
	}
	t.createMs.add(time.Since(t0))
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		return fail(fmt.Errorf("create response %q: %v", b, err))
	}
	path := "/sessions/" + st.ID
	defer func() {
		// A failed lifecycle still releases its session.
		if failed {
			_, _ = t.do(http.MethodDelete, path, nil)
		}
	}()

	t.ops++
	tr := time.Now()
	if _, err := t.do(http.MethodPost, path+"/budget", map[string]float64{"budget_frac": serveRetarget}); err != nil {
		return fail(err)
	}
	t.retargetMs.addDur(time.Now(), time.Since(tr))

	t.ops++
	lines, last, err := t.stream(path+"/stream", sample)
	if err != nil {
		return fail(err)
	}
	life := last.Sub(t0)
	t.lifeMs.add(life)
	// Records arrive in bursts (those stepped while the tenant was
	// still retargeting are buffered), so the per-epoch latency is the
	// lifecycle's create-to-last-record time per epoch.
	t.epochMs.addDur(last, life/serveEpochs)

	t.ops++
	b, err = t.do(http.MethodGet, path+"/result", nil)
	if err != nil {
		return fail(err)
	}
	if sample {
		res := &runner.Result{}
		if err := json.Unmarshal(b, res); err != nil {
			return fail(fmt.Errorf("result: %w", err))
		}
		t.samples = append(t.samples, servedSample{life: l, lines: lines, res: res})
	}

	t.ops++
	ts := time.Now()
	b, err = t.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return fail(err)
	}
	t.scrapeMs.add(time.Since(ts))
	t.scrapeBytes += int64(len(b))

	t.ops++
	if _, err := t.do(http.MethodDelete, path, nil); err != nil {
		return fail(err)
	}
	t.lives++
	return false
}

// stream follows an NDJSON record stream to its end, returning the time
// of its last record. keep retains the raw lines.
func (t *tenant) stream(path string, keep bool) (lines [][]byte, last time.Time, err error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, last, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		t.streamBytes += int64(len(line)) + 1
		if bytes.Contains(line, []byte(`"heartbeat"`)) {
			continue
		}
		last = time.Now()
		t.records.add(last, 1)
		n++
		if keep {
			lines = append(lines, append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, last, err
	}
	if n != serveEpochs {
		return nil, last, fmt.Errorf("GET %s: %d of %d records", path, n, serveEpochs)
	}
	return lines, last, nil
}

// runTenants drives every tenant's closed loop until the deadline and
// returns the tenants and when they started.
func runTenants(r *result, base string, seed int64, d time.Duration) ([]*tenant, time.Time) {
	start := time.Now()
	deadline := start.Add(d)
	ts := make([]*tenant, serveTenants)
	var wg sync.WaitGroup
	for k := range ts {
		ts[k] = newTenant(k, base, start)
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			// A failed lifecycle is counted and the loop goes on, so the
			// load stays the same; a tenant that keeps failing stops.
			for l := 0; l < serveQualityLives || time.Now().Before(deadline); l++ {
				t.lifecycle(seed, l)
				if len(t.errs) >= 10 {
					return
				}
			}
		}(ts[k])
	}
	wg.Wait()
	for _, t := range ts {
		t.client.CloseIdleConnections()
		r.attempted += t.ops
		for _, err := range t.errs {
			r.fail(err)
		}
	}
	return ts, start
}

// serveBaselines runs the all-max baseline of each lifecycle that gives
// the sim-valued metrics.
func serveBaselines(seed int64) (map[[2]int]*runner.Result, error) {
	out := map[[2]int]*runner.Result{}
	for k := 0; k < serveTenants; k++ {
		for l := 0; l < serveQualityLives; l++ {
			cfg, err := serveRequest(seed, k, l).Config()
			if err != nil {
				return nil, err
			}
			cfg.Policy = nil
			if out[[2]int{k, l}], err = runner.Run(cfg); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func runServeHTTP(o options) (*result, error) {
	r := newResult()
	// Set-up: the daemon start, plus the all-max baselines of the
	// lifecycles that give the sim-valued metrics.
	type state struct {
		d     *daemon
		bases map[[2]int]*runner.Result
	}
	st, err := timedSetup(r, func() (state, error) {
		bases, err := serveBaselines(o.seed)
		if err != nil {
			return state{}, err
		}
		d, err := startDaemon(o.fastcapd)
		return state{d, bases}, err
	}, func(s state) { _ = s.d.stop() })
	if err != nil {
		return nil, err
	}
	d := st.d
	var lay *layers
	httpFor := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		zeroLayers(r)
		lay = &layers{}
		httpFor /= 2
	}
	var stepSum0, stepN0 float64
	if lay != nil {
		stepSum0, stepN0, err = scrapeStep(d.base)
		if err != nil {
			_ = d.stop()
			return nil, err
		}
	}
	ts, start := runTenants(r, d.base, o.seed, httpFor)
	var stepSum1, stepN1 float64
	if lay != nil {
		stepSum1, stepN1, err = scrapeStep(d.base)
	}
	rss, rssErr := d.maxRSSMB()
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("fastcapd exit: %w: %s", stopErr, d.log.text())
	}
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}

	var (
		createMs, lifeMs, scrapeMs   msSamples
		records, epochMs, retargetMs = newTimeline(start), newTimeline(start), newTimeline(start)
		scrapeBytes, streamBytes     int64
		lives                        int
	)
	for _, t := range ts {
		createMs = append(createMs, t.createMs...)
		lifeMs = append(lifeMs, t.lifeMs...)
		scrapeMs = append(scrapeMs, t.scrapeMs...)
		records.merge(t.records)
		epochMs.merge(t.epochMs)
		retargetMs.merge(t.retargetMs)
		scrapeBytes += t.scrapeBytes
		streamBytes += t.streamBytes
		lives += t.lives
	}
	if lives == 0 {
		return nil, errors.New("no tenant lifecycle completed")
	}
	nRecords := len(records.at)
	rate := records.rate()
	checkServed(r, ts, o.seed, st.bases, lay)
	fmt.Printf("serve-http: %d lifecycles, %d records\n", lives, nRecords)

	if lay != nil {
		r.set("trace.epochs_per_s", rate)
		stepMs := 0.0
		if n := stepN1 - stepN0; n > 0 {
			stepMs = (stepSum1 - stepSum0) / n * 1e3
		}
		r.set("serve.step_ms", stepMs)
		r.set("serve.wait_ms_per_epoch", median(lifeMs)/serveEpochs-stepMs)
		r.set("http.stream_bytes_per_epoch", float64(streamBytes)/float64(nRecords))
		r.set("metrics.scrape_ms", median(scrapeMs))
		r.set("metrics.scrape_kb", float64(scrapeBytes)/float64(len(scrapeMs))/1024)
		lay.setSimLayers(r)
		return r, runManager(r, o, httpFor)
	}
	r.set("epochs_per_s", rate)
	r.setWindowed("epoch_ms", epochMs)
	r.set("lifecycle_ms_p50", median(lifeMs))
	r.set("create_ms_p50", median(createMs))
	r.setWindowed("retarget_ms", retargetMs)
	r.set("max_rss_mb", rss)
	return r, nil
}

// checkServed replays every sampled lifecycle as a solo runner.Session
// of the same request, with the retarget applied at the epoch the
// served records show it landed, and requires byte-identical records
// (the serve ↔ solo gate). The first lifecycles of each tenant also
// give the sim-valued metrics against all-max baselines.
func checkServed(r *result, ts []*tenant, seed int64, bases map[[2]int]*runner.Result, lay *layers) {
	var over overshoot
	var q perfQuality
	var recs []runner.EpochRecord
	for _, t := range ts {
		for _, s := range t.samples {
			req := serveRequest(seed, t.k, s.life)
			cfg, err := req.Config()
			if err != nil {
				r.check(false, "tenant %d request config: %v", t.k, err)
				continue
			}
			served := make([]runner.EpochRecord, len(s.lines))
			land := len(s.lines)
			for i, line := range s.lines {
				if err := json.Unmarshal(line, &served[i]); err != nil {
					r.check(false, "tenant %d lifecycle %d record %d: %v", t.k, s.life, i, err)
					break
				}
				if land == len(s.lines) && served[i].BudgetW != served[0].BudgetW {
					land = i
				}
			}
			if served[0].BudgetW != serveBudget*served[0].PeakW {
				land = 0
			}
			var opts []runner.SessionOption
			if lay != nil {
				cfg.Policy = wrapPolicy(cfg.Policy, lay)
				opts = append(opts, lay.profile())
			}
			solo, err := runner.NewSession(cfg, opts...)
			if err != nil {
				r.check(false, "solo session: %v", err)
				continue
			}
			for i := range s.lines {
				if i == land {
					_ = solo.SetBudgetFrac(serveRetarget)
				}
				rec, err := solo.Step(context.Background())
				if err != nil {
					r.check(false, "solo step %d: %v", i, err)
					break
				}
				b, _ := json.Marshal(rec)
				r.check(bytes.Equal(b, s.lines[i]), "tenant %d lifecycle %d epoch %d: served record differs from the solo run", t.k, s.life, i)
			}
			if s.life >= serveQualityLives {
				continue
			}
			base := bases[[2]int{t.k, s.life}]
			apps, err := coreApps(cfg)
			if err != nil {
				r.check(false, "tenant %d layout: %v", t.k, err)
				continue
			}
			q.add(s.res, base, apps)
			for _, e := range served {
				over.add(e.AvgPowerW, e.BudgetW)
			}
			recs = append(recs, served...)
		}
	}
	r.set("policy.cap_overshoot_pct", over.pct())
	q.set(r)
	pErr, rErr := modelErrors(recs)
	r.set("power.model_err_pct", pErr)
	r.set("qmodel.resp_err_pct", rErr)
}

// scrapeStep reads the daemon's epoch-step histogram sum and count.
func scrapeStep(base string) (sum, count float64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		switch f[0] {
		case "fastcap_serve_epoch_step_seconds_sum":
			sum, err = strconv.ParseFloat(f[1], 64)
		case "fastcap_serve_epoch_step_seconds_count":
			count, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return sum, count, sc.Err()
}

// runManager is the traced run's in-process half: the same tenant
// lifecycles calling serve.Manager directly, so create, retarget and
// delete cost without HTTP, and the Go scheduler's latency under the
// same stepping load.
func runManager(r *result, o options, d time.Duration) error {
	m := serve.NewManager(serve.Options{})
	defer func() { _ = m.Shutdown(context.Background()) }()
	sched0 := schedLatencies()
	deadline := time.Now().Add(d)
	var (
		mu                        sync.Mutex
		create, retarget, closeMs msSamples
		errs                      []error
	)
	var wg sync.WaitGroup
	for k := 0; k < serveTenants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for l := 0; time.Now().Before(deadline); l++ {
				var c, s, x time.Duration
				err := func() error {
					t0 := time.Now()
					st, err := m.Create(serveRequest(o.seed, k, l))
					c = time.Since(t0)
					if err != nil {
						return err
					}
					t0 = time.Now()
					err = m.SetBudget(st.ID, serveRetarget)
					s = time.Since(t0)
					if err != nil {
						return err
					}
					for cur := 0; ; cur++ {
						if _, err := m.Next(context.Background(), st.ID, cur); errors.Is(err, io.EOF) {
							break
						} else if err != nil {
							return err
						}
					}
					if _, err := m.Result(st.ID); err != nil {
						return err
					}
					t0 = time.Now()
					err = m.Close(st.ID)
					x = time.Since(t0)
					return err
				}()
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				create.add(c)
				retarget.add(s)
				closeMs.add(x)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		r.op(err)
	}
	r.set("serve.manager_create_us", median(create)*1e3)
	r.set("serve.manager_setbudget_us", median(retarget)*1e3)
	r.set("serve.manager_close_us", median(closeMs)*1e3)
	r.set("runtime.sched_latency_ms_p95", sched0.p95Since()*1e3)
	return nil
}

// schedSnapshot is a /sched/latencies:seconds histogram reading.
type schedSnapshot struct{ h *metrics.Float64Histogram }

func schedLatencies() schedSnapshot {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	return schedSnapshot{s[0].Value.Float64Histogram()}
}

// p95Since returns the 95th percentile, in seconds, of the goroutine
// scheduling latencies recorded since the snapshot (bucket upper bound).
func (s schedSnapshot) p95Since() float64 {
	now := schedLatencies().h
	var total uint64
	delta := make([]uint64, len(now.Counts))
	for i := range now.Counts {
		delta[i] = now.Counts[i] - s.h.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range delta {
		cum += c
		if float64(cum) >= 0.95*float64(total) {
			if hi := now.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return now.Buckets[i]
		}
	}
	return 0
}
