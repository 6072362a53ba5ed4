package main

// The rebalance workload: the in-process cluster over the memory transport
// with the Dynamoth balancer, so LLA reports, plan generation, cloud spawn,
// dispatcher SWITCH/forwarding, client re-homing and replay cursors all run.
// It bypasses TCP, RESP and the reactor.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/cluster"
	"github.com/dynamoth/dynamoth/internal/loadgen"
	"github.com/dynamoth/dynamoth/internal/trace"
)

const (
	rebalanceRate     = 5_000
	rebalancePayload  = 120
	rebalanceChannels = 64
	rebalanceMaxBps   = 200_000 // T_i scaled down so 5k msg/s needs 4 servers
	rebalanceMinLoad  = 20 * time.Second
)

func rebalanceChannelNames() []string {
	names := make([]string, rebalanceChannels)
	for i := range names {
		names[i] = fmt.Sprintf("rb.%d", i)
	}
	return names
}

// clusterSystem is one set-up cluster with a subscriber and a publisher.
type clusterSystem struct {
	c        *cluster.Cluster
	rec      *loadgen.Recorder
	pub, sub *dynamoth.Client
	readers  sync.WaitGroup

	mu     sync.Mutex // guards ledger and stray
	ledger *ledger
	stray  uint64
}

func setupCluster(seed int64) (*clusterSystem, error) {
	c, err := cluster.Start(cluster.Options{
		InitialServers: 1,
		MaxServers:     4,
		MaxOutgoingBps: rebalanceMaxBps,
		Seed:           seed,
		TWait:          2 * time.Second,
		BootDelay:      time.Second,
		ReportEvery:    time.Second,
		TraceCapacity:  1 << 18,
	})
	if err != nil {
		return nil, fmt.Errorf("starting cluster: %w", err)
	}
	s := &clusterSystem{c: c, rec: loadgen.NewRecorder()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if s.sub, err = c.NewClient(dynamoth.Config{NodeID: 0xB001, SubscribeBuffer: 1 << 14}); err != nil {
		return nil, fmt.Errorf("subscriber: %w", err)
	}
	for _, ch := range rebalanceChannelNames() {
		msgs, err := s.sub.Subscribe(ch)
		if err != nil {
			return nil, fmt.Errorf("subscribing %s: %w", ch, err)
		}
		s.readers.Add(1)
		go func() {
			defer s.readers.Done()
			for m := range msgs {
				s.deliver(m.Payload)
			}
		}()
	}
	if s.pub, err = c.NewClient(dynamoth.Config{NodeID: 0xB002}); err != nil {
		return nil, fmt.Errorf("publisher: %w", err)
	}
	ok = true
	return s, nil
}

func (s *clusterSystem) close() {
	if s.pub != nil {
		s.pub.Close()
	}
	if s.sub != nil {
		s.sub.Close()
	}
	s.readers.Wait()
	s.c.Stop()
}

func (s *clusterSystem) deliver(payload []byte) {
	now := time.Now()
	intended, phase, seq, ok := parsePayload(payload)
	s.mu.Lock()
	led := s.ledger
	if !ok || led == nil || phase != phaseFixed {
		s.stray++
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	led.observe(seq, 0, intended, now)
}

func (s *clusterSystem) strays() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stray
}

// rebalanceStats is one load phase's measurements.
type rebalanceStats struct {
	out         outcome
	lags        []time.Duration
	cpu         float64 // whole process, microseconds per delivery
	rssMB       float64
	converge    time.Duration
	serverS     float64
	planChanges uint64
	serversPeak int
	switches    uint64
	spans       []time.Duration
}

// load offers the workload's traffic for d and drains it.
func (s *clusterSystem) load(p params, d time.Duration, spans bool) (rebalanceStats, error) {
	var st rebalanceStats
	seed := phaseSeed(p, 0, phaseFixed)
	rate := rebalanceRate * p.scale
	capacity := loadgen.NewSchedule(loadgen.ArrivalPeriodic, rate, 0, seed).CountThrough(d) + 1
	led := newLedger(capacity, 1, s.rec.Epoch(), true, 0, &dropBudget)
	s.mu.Lock()
	s.ledger = led
	s.mu.Unlock()
	o := openLoop{
		phase: phaseFixed, rate: rate, arrival: loadgen.ArrivalPeriodic, duration: d,
		seed: seed, payload: rebalancePayload, channels: rebalanceChannelNames(), publish: s.pub.Publish,
	}
	if spans {
		st.spans = make([]time.Duration, 0, capacity)
		o.spans = &st.spans
	}

	// Watch the plan version and pool size while the load runs.
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := s.c.PlanVersion()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if v := s.c.PlanVersion(); v != last {
					last, st.converge = v, time.Since(start)
				}
				st.serversPeak = max(st.serversPeak, s.c.ActiveServers())
			}
		}
	}()
	cpu, err := startCPU(func() (time.Duration, error) { return selfCPU(), nil }, led.delivered.Load)
	if err == nil {
		st.lags, err = runOpenLoop(s.rec, led, o)
	}
	if err == nil {
		st.cpu, _, err = cpu.perMessage()
	}
	if err == nil {
		led.drain(time.Second, 15*time.Second)
		st.rssMB, err = procRSSMB(os.Getpid())
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return st, err
	}
	st.out = led.settle()
	st.serverS = s.c.InstanceHours() * 3600
	st.planChanges = s.c.PlanVersion() - 1
	for _, e := range s.c.Events(0) {
		if e.Kind == trace.KindSwitchSend {
			st.switches++
		}
	}
	return st, nil
}

// runRebalance measures one loaded cluster. Traced, it loads four
// clusters in turn, untraced and traced in the order U T T U, so two pairs
// give the tracing overhead with the order swapped. The load lasts the
// run's seconds, but never less than 20 s at full scale: the balancer needs
// that long to reach four servers.
func runRebalance(p params) (*report, error) {
	dropBudget.Store(p.dropDeliveries)
	d := max(time.Duration(p.seconds*float64(time.Second)), time.Duration(float64(rebalanceMinLoad)*p.scale))
	rep := newReport()
	rep.notes = append(rep.notes, "known loss: after the third or fourth plan change some channels stop "+
		"delivering; the publish-only client never applies a SWITCH (publisher_redirects stays 0), so "+
		"fail_ratio here is the system's, reported as measured")

	setups := p.setups
	if p.trace {
		setups = 1
	}
	// runOne sets up (keeping the last of several set-ups), loads and
	// drains one cluster; with a profile path it is a traced load, with
	// spans around every publish and a CPU profile of the process.
	runOne := func(profilePath string) (*clusterSystem, rebalanceStats, []time.Duration, error) {
		var sys *clusterSystem
		var times []time.Duration
		for i := 0; i < setups; i++ {
			if sys != nil {
				sys.close()
			}
			t0 := time.Now()
			s, err := setupCluster(p.seed)
			if err != nil {
				return nil, rebalanceStats{}, nil, fmt.Errorf("set-up: %w", err)
			}
			times = append(times, time.Since(t0))
			sys = s
		}
		var profile *os.File
		if profilePath != "" {
			var err error
			if profile, err = os.Create(profilePath); err != nil {
				sys.close()
				return nil, rebalanceStats{}, nil, fmt.Errorf("creating CPU profile: %w", err)
			}
			if err := pprof.StartCPUProfile(profile); err != nil {
				profile.Close()
				sys.close()
				return nil, rebalanceStats{}, nil, fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		st, err := sys.load(p, d, profilePath != "")
		if profile != nil {
			pprof.StopCPUProfile()
			if cerr := profile.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("writing CPU profile: %w", cerr)
			}
		}
		if err == nil {
			err = checkLag(st.lags)
		}
		if err != nil {
			sys.close()
			return nil, rebalanceStats{}, nil, err
		}
		return sys, st, times, nil
	}

	sys, st, setupTimes, err := runOne("")
	if err != nil {
		return nil, err
	}
	rep.extra["publisher_redirects"] = metric{float64(sys.pub.Stats().Redirects), "count"}
	sys.close()
	rep.addStray(sys.strays())
	rep.account("load", st.out)
	rep.endToEnd["setup_s"] = metric{medianDuration(setupTimes).Seconds(), "s"}
	rep.extra["p50_us"] = metric{us(quantile(st.out.latencies, 0.5)), "us"}
	rep.extra["p99_us"] = metric{us(quantile(st.out.latencies, 0.99)), "us"}
	rep.extra["p999_us"] = metric{us(quantile(st.out.latencies, 0.999)), "us"}
	// One process is both the system and its clients here.
	rep.endToEnd["node_cpu_us_per_msg"] = metric{st.cpu, "us"}
	rep.endToEnd["client_cpu_us_per_msg"] = metric{st.cpu, "us"}
	rep.endToEnd["node_rss_mb"] = metric{st.rssMB, "MB"}
	rep.extra["converge_s"] = metric{st.converge.Seconds(), "s"}
	rep.extra["server_s"] = metric{st.serverS, "s"}
	rep.extra["fail_ratio"] = metric{failRatio(st.out.attempted, st.out.failed()), "ratio"}
	rep.extra["plan_changes"] = metric{float64(st.planChanges), "count"}
	rep.extra["servers_peak"] = metric{float64(st.serversPeak), "count"}
	rep.extra["latency_samples"] = metric{float64(len(st.out.latencies)), "count"}
	rep.extra["send_lag_p99_us"] = metric{us(quantile(st.lags, 0.99)), "us"}
	rep.extra["send_lag_max_us"] = metric{us(quantile(st.lags, 1)), "us"}
	if !p.trace {
		return rep, nil
	}

	// The rest of the traced run: T T U after the U above. Per-layer
	// figures come from the first traced cluster; both traced loads are
	// profiled.
	var profiles []string
	var traced []rebalanceStats
	plain := []rebalanceStats{st}
	for i, tracing := range []bool{true, true, false} {
		path := ""
		if tracing {
			path = filepath.Join(p.outDir, fmt.Sprintf("rebalance-seed%d-%d.pprof", p.seed, i))
			profiles = append(profiles, path)
		}
		sys, st, _, err := runOne(path)
		if err != nil {
			return nil, err
		}
		if tracing {
			rep.account("traced load", st.out)
			traced = append(traced, st)
			if len(traced) == 1 {
				addRebalanceLayers(rep, sys, plain[0], st)
			}
		} else {
			rep.account("untraced load", st.out)
			plain = append(plain, st)
		}
		sys.close()
		rep.addStray(sys.strays())
	}
	pairs := make([]overheadPair, len(plain))
	for i := range pairs {
		pairs[i] = overheadPair{
			plainP50: us(quantile(plain[i].out.latencies, 0.5)), tracedP50: us(quantile(traced[i].out.latencies, 0.5)),
			plainCPU: plain[i].cpu, tracedCPU: traced[i].cpu,
		}
	}
	addTraceOverhead(rep, pairs)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := addCPUShare(rep, exe, profiles...); err != nil {
		return nil, err
	}
	r := replaySet{payload: rebalancePayload, maxBps: rebalanceMaxBps, servers: []string{"pub1"}, rate: rebalanceRate * p.scale}
	names := rebalanceChannelNames()
	for i := uint64(0); i < replayPublications; i++ {
		r.channels = append(r.channels, names[channelIndex(phaseSeed(p, 0, phaseFixed), phaseFixed, i, len(names))])
	}
	r.subChannels, r.churn = names, names
	if err := addReplays(rep, r); err != nil {
		return nil, err
	}
	return rep, nil
}

// addRebalanceLayers records the traced cluster's per-layer figures.
func addRebalanceLayers(rep *report, sys *clusterSystem, plain, traced rebalanceStats) {
	sortDurations(traced.spans)
	n := uint64(len(traced.spans))
	rep.layer("client.publish_p50_ns", "ns", float64(quantile(traced.spans, 0.5)), n)
	rep.layer("client.publish_p99_ns", "ns", float64(quantile(traced.spans, 0.99)), n)
	_, _, deliver := sys.sub.StageLatencies()
	rep.layer("client.deliver_leg_us", "us", us(deliver.Quantile(0.5)), deliver.Count())
	var ct clientTotals
	ct.add(sys.pub)
	ct.add(sys.sub)
	ct.record(rep)
	// The memory transport does not pipeline publishes.
	rep.layer("transport.outstanding_max", "count", 0, 0)

	sum := map[string]float64{}
	for _, id := range sys.c.Servers() {
		text, err := sys.c.ScrapeMetrics(id)
		if err != nil {
			continue
		}
		for k, v := range parseMetrics(strings.NewReader(text), nodeCounters...) {
			sum[k] += v
		}
	}
	// Counters add across the servers still running; stage quantiles do
	// not, so they are the origin server's.
	origin := map[string]float64{}
	if text, err := sys.c.ScrapeMetrics("pub1"); err == nil {
		origin = parseMetrics(strings.NewReader(text), "dynamoth_stage_latency_")
	}
	addBrokerLayers(rep, sum, origin)
	rep.layer("balancer.plan_changes", "count", float64(traced.planChanges), 1)
	rep.layer("balancer.servers_peak", "count", float64(traced.serversPeak), 1)
	rep.layer("dispatcher.switch_events", "count", float64(traced.switches), 1)
	rep.layer("loadgen.send_lag_p99_us", "us", us(quantile(plain.lags, 0.99)), uint64(len(plain.lags)))
	rep.layer("loadgen.send_lag_max_us", "us", us(quantile(plain.lags, 1)), uint64(len(plain.lags)))
	rep.layer("sub_p50_us", "us", 0, 0)
	rep.layer("sub_p99_us", "us", 0, 0)
}
