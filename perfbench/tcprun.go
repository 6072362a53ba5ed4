package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dynamoth/dynamoth/internal/loadgen"
)

func runPipeline(p params) (*report, error) { return runTCP(p, pipelineSpec(p.scale)) }
func runChurn(p params) (*report, error)    { return runTCP(p, churnSpec(p.scale)) }

// fixedStats is one open-loop phase's measurements.
type fixedStats struct {
	out  outcome
	lags []time.Duration
	// nodeCPU and selfCPU are CPU microseconds per delivery (slot and extra
	// deliveries) over the phase.
	nodeCPU, selfCPU float64
	rssMB            float64
	subAcks          []time.Duration // sorted SUBSCRIBE ack latencies (churn)
	unacked          int
	// Traced phase only.
	spans          []time.Duration
	outstandingMax int64
	outstandingN   uint64
	before, after  map[string]float64
	profile        string
}

// Node counters a traced phase differences.
var nodeCounters = []string{
	"dynamoth_broker_published_total",
	"dynamoth_broker_delivered_total",
	"dynamoth_broker_dropped_total",
	"dynamoth_broker_bytes_out_total",
	"dynamoth_broker_epoll_wakeups_total",
	"dynamoth_broker_epoll_writes_total",
	"dynamoth_broker_replay_missed_total",
	"dynamoth_plan_version",
	"dynamoth_reconfig_switch_sent_total",
	"dynamoth_stage_latency_",
}

// phaseSeed derives a phase's input seed from the run's seed and round.
func phaseSeed(p params, round, phase int) int64 {
	return p.seed*7919 + int64(round)*31 + int64(phase)
}

// fixedPhase runs one open-loop phase (with churn alongside, if the
// workload has it) and drains it. The loaded phase runs at loadedFactor
// times the workload's rate with at most saturationWindow deliveries
// outstanding, every other phase at the rate itself with no window.
func (s *tcpSystem) fixedPhase(p params, round, phase int, d time.Duration, traced bool) (fixedStats, error) {
	var st fixedStats
	seed := phaseSeed(p, round, phase)
	rate, window := s.spec.rate, 0
	if phase == phaseLoaded {
		rate, window = rate*loadedFactor, saturationWindow
	}
	capacity := loadgen.NewSchedule(s.spec.arrival, rate, 0, seed).CountThrough(d) + 1
	led := s.newLedger(phase, capacity, true, window)
	o := openLoop{
		phase: phase, rate: rate, arrival: s.spec.arrival, duration: d,
		seed: seed, payload: s.spec.payload, channels: s.spec.channels, publish: s.pub.Publish,
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var profErr error
	if traced {
		before, err := s.node.scrape(nodeCounters...)
		if err != nil {
			return st, err
		}
		st.before = before
		st.spans = make([]time.Duration, 0, capacity)
		o.spans = &st.spans
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					st.outstandingMax = max(st.outstandingMax, s.pubDial.outstanding())
					st.outstandingN++
				}
			}
		}()
		// A CPU profile of the node over the middle of the phase.
		secs := int(min(5, max(1, d.Seconds()-2)))
		st.profile = filepath.Join(p.outDir, fmt.Sprintf("node-%s-seed%d-%d.pprof", s.spec.name, p.seed, round))
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(min(time.Second, d/4))
			f, err := os.Create(st.profile)
			if err != nil {
				profErr = err
				return
			}
			profErr = s.node.fetch(fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs), f)
			if cerr := f.Close(); profErr == nil {
				profErr = cerr
			}
		}()
	}

	var churnErr error
	if s.raw != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnErr = s.raw.churn(s.spec.churnRate, d, seed, s.spec.channels)
		}()
	}

	pid := s.node.pid()
	cpu, err := startCPU(func() (time.Duration, error) { return procCPU(pid) },
		func() uint64 { return led.delivered.Load() + led.extra.Load() })
	if err == nil {
		st.lags, err = runOpenLoop(s.rec, led, o)
	}
	if err == nil {
		st.nodeCPU, st.selfCPU, err = cpu.perMessage()
	}
	if err != nil {
		close(stop)
		wg.Wait()
		return st, err
	}
	led.drain(300*time.Millisecond, 10*time.Second)
	st.rssMB, err = procRSSMB(pid)
	close(stop)
	wg.Wait()
	if err != nil {
		return st, err
	}
	if churnErr != nil {
		return st, churnErr
	}
	if profErr != nil {
		return st, fmt.Errorf("node CPU profile: %w", profErr)
	}
	if traced {
		if st.after, err = s.node.scrape(nodeCounters...); err != nil {
			return st, err
		}
	}
	st.out = led.settle()
	if s.raw != nil {
		deadline := time.Now().Add(5 * time.Second)
		for {
			acks, pending := s.raw.takeAcks()
			st.subAcks = append(st.subAcks, acks...)
			st.unacked = pending
			if pending == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		sortDurations(st.subAcks)
	}
	return st, nil
}

// satStats is one saturation phase's measurements.
type satStats struct {
	out  outcome
	rate float64 // deliveries per second over the phase
	// nodeCPU and selfCPU are CPU microseconds per delivery over the phase.
	nodeCPU, selfCPU float64
}

// saturatedPhase runs the closed-loop phase.
func (s *tcpSystem) saturatedPhase(p params, round int, d time.Duration) (satStats, error) {
	var st satStats
	seed := phaseSeed(p, round, phaseSaturated)
	led := s.newLedger(phaseSaturated, saturationCapacity(d), false, saturationWindow)
	var wg sync.WaitGroup
	var churnErr error
	if s.raw != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnErr = s.raw.churn(s.spec.churnRate, d, seed, s.spec.channels)
		}()
	}
	pid := s.node.pid()
	delivered := func() uint64 { return led.delivered.Load() + led.extra.Load() }
	cpu, err := startCPU(func() (time.Duration, error) { return procCPU(pid) }, delivered)
	if err == nil {
		t0 := time.Now()
		err = runClosedLoop(s.rec, led, closedLoop{
			duration: d, seed: seed, payload: s.spec.payload,
			channels: s.spec.channels, publish: s.pub.Publish,
		})
		st.rate = float64(delivered()) / time.Since(t0).Seconds()
	}
	if err == nil {
		st.nodeCPU, st.selfCPU, err = cpu.perMessage()
	}
	wg.Wait()
	if err != nil {
		return st, err
	}
	if churnErr != nil {
		return st, churnErr
	}
	led.drain(300*time.Millisecond, 10*time.Second)
	if s.raw != nil {
		s.raw.takeAcks() // saturation-phase acks are not timed
	}
	st.out = led.settle()
	return st, nil
}

// runTCP is the pipeline and churn workloads. Untraced, a run is
// p.setups rounds, each on a freshly booted node: set-up, a warm-up, a
// loaded phase at loadedFactor times the rate (50% of the round), a
// fixed-rate phase (30%) and a saturation phase (20%). Latency quantiles are
// taken over every delivery of every round's fixed-rate phase; set-up time,
// RSS, CPU per message and saturated throughput are medians over the
// rounds, so no single node process decides them. Traced, a run is one
// round of alternating untraced and traced fixed-rate stretches, followed
// by the per-layer replays.
func runTCP(p params, spec tcpSpec) (*report, error) {
	dropBudget.Store(p.dropDeliveries)
	rep := newReport()
	total := time.Duration(p.seconds * float64(time.Second))
	if p.trace {
		return rep, runTCPTraced(p, spec, rep, total)
	}
	per := total / time.Duration(p.setups)
	fixedDur, loadedDur := per*3/10, per*5/10
	var (
		setups, lags, subAcks, latencies []time.Duration
		loadedLags                       []time.Duration
		nodeCPU, selfCPU, rss, sat       []float64
		loadedNode, loadedSelf           []float64
		satNode, satSelf                 []float64
		unacked                          int
	)
	for round := 0; round < p.setups; round++ {
		t0 := time.Now()
		sys, err := setupTCP(p, spec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
		fixed, loaded, satRound, err := sys.round(p, rep, round, fixedDur, loadedDur, per-fixedDur-loadedDur)
		sys.close()
		if err != nil {
			return nil, err
		}
		latencies = append(latencies, fixed.out.latencies...)
		lags = append(lags, fixed.lags...)
		loadedLags = append(loadedLags, loaded.lags...)
		subAcks = append(subAcks, fixed.subAcks...)
		unacked += fixed.unacked + loaded.unacked
		nodeCPU = append(nodeCPU, fixed.nodeCPU)
		selfCPU = append(selfCPU, fixed.selfCPU)
		loadedNode = append(loadedNode, loaded.nodeCPU)
		loadedSelf = append(loadedSelf, loaded.selfCPU)
		rss = append(rss, fixed.rssMB)
		sat = append(sat, satRound.rate)
		satNode = append(satNode, satRound.nodeCPU)
		satSelf = append(satSelf, satRound.selfCPU)
		rep.addStray(sys.stray.Load())
	}
	sortDurations(lags)
	if err := checkLag(lags); err != nil {
		return nil, err
	}
	sortDurations(loadedLags)
	if err := checkLoadedLag(loadedLags); err != nil {
		return nil, err
	}
	if unacked > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d SUBSCRIBEs never acknowledged", unacked))
	}
	sortDurations(latencies)
	sortDurations(subAcks)
	rep.endToEnd["setup_s"] = metric{medianDuration(setups).Seconds(), "s"}
	rep.endToEnd["node_cpu_us_per_msg_loaded"] = metric{median(loadedNode), "us"}
	rep.endToEnd["client_cpu_us_per_msg_loaded"] = metric{median(loadedSelf), "us"}
	rep.endToEnd["node_rss_mb"] = metric{median(rss), "MB"}
	rep.extra["node_cpu_us_per_msg_saturated"] = metric{median(satNode), "us"}
	rep.extra["client_cpu_us_per_msg_saturated"] = metric{median(satSelf), "us"}
	rep.extra["p50_us"] = metric{us(quantile(latencies, 0.5)), "us"}
	rep.extra["p99_us"] = metric{us(quantile(latencies, 0.99)), "us"}
	rep.extra["p999_us"] = metric{us(quantile(latencies, 0.999)), "us"}
	rep.extra["saturated_msgs_s"] = metric{median(sat), "msg/s"}
	rep.extra["node_cpu_us_per_msg"] = metric{median(nodeCPU), "us"}
	rep.extra["client_cpu_us_per_msg"] = metric{median(selfCPU), "us"}
	if spec.churnRate > 0 {
		rep.extra["sub_p50_us"] = metric{us(quantile(subAcks, 0.5)), "us"}
		rep.extra["sub_p99_us"] = metric{us(quantile(subAcks, 0.99)), "us"}
		rep.extra["sub_samples"] = metric{float64(len(subAcks)), "count"}
	}
	rep.extra["latency_samples"] = metric{float64(len(latencies)), "count"}
	rep.extra["send_lag_p99_us"] = metric{us(quantile(lags, 0.99)), "us"}
	rep.extra["send_lag_max_us"] = metric{us(quantile(lags, 1)), "us"}
	rep.extra["loaded_send_lag_p50_us"] = metric{us(quantile(loadedLags, 0.5)), "us"}
	rep.extra["loaded_send_lag_max_us"] = metric{us(quantile(loadedLags, 1)), "us"}
	rep.series["round_setup_s"] = secondsSeries(setups)
	rep.series["round_node_cpu_us_per_msg"] = nodeCPU
	rep.series["round_node_cpu_us_per_msg_loaded"] = loadedNode
	rep.series["round_client_cpu_us_per_msg_loaded"] = loadedSelf
	rep.series["round_node_cpu_us_per_msg_saturated"] = satNode
	rep.series["round_saturated_msgs_s"] = sat
	return rep, nil
}

// round runs one measured round on a set-up system: warm-up, the loaded
// rate for loadedDur, fixed rate for fixedDur, saturation for satDur. The
// loaded phase comes first so that the fixed-rate phase, at whose end the
// node's RSS is read, finds the node's replay rings filled.
func (s *tcpSystem) round(p params, rep *report, round int, fixedDur, loadedDur, satDur time.Duration) (fixed, loaded fixedStats, sat satStats, err error) {
	warm, err := s.fixedPhase(p, round, phaseWarmup, min(500*time.Millisecond, fixedDur/4), false)
	if err != nil {
		return
	}
	rep.account("warm-up", warm.out)
	if loaded, err = s.fixedPhase(p, round, phaseLoaded, loadedDur, false); err != nil {
		return
	}
	rep.account("loaded", loaded.out)
	if fixed, err = s.fixedPhase(p, round, phaseFixed, fixedDur, false); err != nil {
		return
	}
	rep.account("fixed-rate", fixed.out)
	if sat, err = s.saturatedPhase(p, round, satDur); err != nil {
		return
	}
	rep.account("saturation", sat.out)
	return
}

// overheadPairs is how many pairs of an untraced and a traced fixed-rate
// stretch a traced run makes. The order within a pair swaps from one pair
// to the next, so the host's drift over the run does not read as the cost
// of tracing.
const overheadPairs = 4

// runTCPTraced is the traced run: one round of alternating untraced and
// traced fixed-rate stretches, whose differences give the tracing
// overhead, then the layer replays.
func runTCPTraced(p params, spec tcpSpec, rep *report, total time.Duration) error {
	sys, err := setupTCP(p, spec)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()
	stretch := total / (2 * overheadPairs)
	warm, err := sys.fixedPhase(p, 0, phaseWarmup, min(500*time.Millisecond, stretch/4), false)
	if err != nil {
		return err
	}
	rep.account("warm-up", warm.out)
	var plain, traced []fixedStats
	for pair := 0; pair < overheadPairs; pair++ {
		for i := 0; i < 2; i++ {
			if tracing := (i == 1) != (pair%2 == 1); tracing {
				st, err := sys.fixedPhase(p, pair, phaseTraced, stretch, true)
				if err != nil {
					return err
				}
				rep.account("traced fixed-rate", st.out)
				traced = append(traced, st)
			} else {
				st, err := sys.fixedPhase(p, pair, phaseFixed, stretch, false)
				if err != nil {
					return err
				}
				rep.account("untraced fixed-rate", st.out)
				plain = append(plain, st)
			}
		}
	}
	var lags []time.Duration
	for _, st := range plain {
		lags = append(lags, st.lags...)
	}
	sortDurations(lags)
	if err := checkLag(lags); err != nil {
		return err
	}
	for _, st := range append(plain, traced...) {
		if st.unacked > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("%d SUBSCRIBEs never acknowledged", st.unacked))
		}
	}
	if err := sys.addLayers(p, rep, lags, plain, traced); err != nil {
		return err
	}
	sys.close()
	closed = true
	rep.addStray(sys.stray.Load())
	return addReplays(rep, replayInputs(p, spec))
}

func secondsSeries(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v.Seconds()
	}
	return out
}
