package main

// Per-layer metrics of a traced run. Everything here is measured from the
// benchmark's own files: spans around calls into each layer's public
// functions, the node's public admin endpoints, and single-threaded replays
// of the workload's generated inputs through each layer's public API.
// Nothing inside the program is instrumented.

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/localplan"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
)

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
}

// addLayers records the traced stretches' span, sampler, admin-endpoint
// and profile figures, the untraced stretches' send lag (lags, sorted) and
// SUBSCRIBE acks, and the tracing overhead of each pair of stretches.
func (s *tcpSystem) addLayers(p params, rep *report, lags []time.Duration, plain, traced []fixedStats) error {
	var spans, subAcks []time.Duration
	var outstandingMax int64
	var outstandingN uint64
	var profiles []string
	delta := map[string]float64{}
	for _, st := range traced {
		spans = append(spans, st.spans...)
		outstandingMax = max(outstandingMax, st.outstandingMax)
		outstandingN += st.outstandingN
		profiles = append(profiles, st.profile)
		for name, v := range st.after {
			delta[name] += v - st.before[name]
		}
	}
	sortDurations(spans)
	n := uint64(len(spans))
	rep.layer("client.publish_p50_ns", "ns", float64(quantile(spans, 0.5)), n)
	rep.layer("client.publish_p99_ns", "ns", float64(quantile(spans, 0.99)), n)
	if s.sub != nil {
		_, _, deliver := s.sub.StageLatencies()
		rep.layer("client.deliver_leg_us", "us", us(deliver.Quantile(0.5)), deliver.Count())
	} else {
		rep.layer("client.deliver_leg_us", "us", 0, 0)
	}
	var ct clientTotals
	ct.add(s.pub)
	ct.add(s.sub)
	ct.record(rep)
	rep.layer("transport.outstanding_max", "count", float64(outstandingMax), outstandingN)

	addBrokerLayers(rep, delta, traced[len(traced)-1].after)
	rep.layer("balancer.plan_changes", "count", delta["dynamoth_plan_version"], 1)
	rep.layer("balancer.servers_peak", "count", 1, 1)
	rep.layer("dispatcher.switch_events", "count", delta["dynamoth_reconfig_switch_sent_total"], 1)

	if err := addCPUShare(rep, p.nodeBin, profiles...); err != nil {
		return err
	}
	pairs := make([]overheadPair, len(plain))
	for i := range pairs {
		pairs[i] = overheadPair{
			plainP50: us(quantile(plain[i].out.latencies, 0.5)), tracedP50: us(quantile(traced[i].out.latencies, 0.5)),
			plainCPU: plain[i].nodeCPU, tracedCPU: traced[i].nodeCPU,
		}
	}
	addTraceOverhead(rep, pairs)
	for _, st := range plain {
		subAcks = append(subAcks, st.subAcks...)
	}
	sortDurations(subAcks)
	rep.layer("loadgen.send_lag_p99_us", "us", us(quantile(lags, 0.99)), uint64(len(lags)))
	rep.layer("loadgen.send_lag_max_us", "us", us(quantile(lags, 1)), uint64(len(lags)))
	rep.layer("sub_p50_us", "us", us(quantile(subAcks, 0.5)), uint64(len(subAcks)))
	rep.layer("sub_p99_us", "us", us(quantile(subAcks, 0.99)), uint64(len(subAcks)))
	return nil
}

// addBrokerLayers records the broker's figures over a stretch of traffic:
// counters holds how much each node counter grew, stages the node's
// stage-latency summaries at its end.
func addBrokerLayers(rep *report, counters, stages map[string]float64) {
	pubs := counters["dynamoth_broker_published_total"]
	n := uint64(pubs)
	perMsg := func(name string) float64 { return counters[name] / max(pubs, 1) }
	rep.layer("broker.epoll_wakeups_per_msg", "ratio", perMsg("dynamoth_broker_epoll_wakeups_total"), n)
	rep.layer("broker.epoll_writes_per_msg", "ratio", perMsg("dynamoth_broker_epoll_writes_total"), n)
	rep.layer("broker.targets_per_msg", "ratio", perMsg("dynamoth_broker_delivered_total"), n)
	rep.layer("broker.bytes_out_per_msg", "B", perMsg("dynamoth_broker_bytes_out_total"), n)
	rep.layer("broker.dropped", "count", counters["dynamoth_broker_dropped_total"], n)
	rep.layer("broker.replay_missed", "count", counters["dynamoth_broker_replay_missed_total"], n)
	for _, stage := range []string{"ingress", "fanout", "flush"} {
		prefix := "dynamoth_stage_latency_" + stage + "_seconds"
		rep.layer("broker.stage_"+stage+"_us", "us",
			stages[prefix+`_quantile{quantile="0.5"}`]*1e6, uint64(stages[prefix+"_count"]))
	}
}

// overheadPair is one untraced and one traced stretch's p50 latency and
// node CPU per message.
type overheadPair struct {
	plainP50, tracedP50, plainCPU, tracedCPU float64
}

// addTraceOverhead reports what tracing cost: the median over pairs of the
// traced stretch's p50 and node CPU per message minus the untraced one's.
// The pairs' differences and their range go to the table and detail file,
// so a reader can see whether the median stands out from the noise.
func addTraceOverhead(rep *report, pairs []overheadPair) {
	var dP50, dCPU []float64
	for _, pr := range pairs {
		dP50 = append(dP50, pr.tracedP50-pr.plainP50)
		dCPU = append(dCPU, pr.tracedCPU-pr.plainCPU)
	}
	n := uint64(len(pairs))
	for name, d := range map[string][]float64{"trace.overhead_p50_us": dP50, "trace.overhead_node_cpu_us_per_msg": dCPU} {
		sorted := append([]float64(nil), d...)
		sort.Float64s(sorted)
		rep.layer(name, "us", median(d), n)
		rep.extra[name+"_min"] = metric{quantile(sorted, 0), "us"}
		rep.extra[name+"_max"] = metric{quantile(sorted, 1), "us"}
		rep.series[name] = d
	}
}

// clientTotals sums the client library's counters over the workload's
// clients.
type clientTotals struct {
	redirects, replayRequests, replayGapFrames, duplicates uint64
}

func (t *clientTotals) add(c *dynamoth.Client) {
	if c == nil {
		return
	}
	st := c.Stats()
	t.redirects += st.Redirects
	t.replayRequests += st.ReplayRequests
	t.replayGapFrames += st.ReplayGapFrames
	t.duplicates += st.DuplicatesSuppressed
}

func (t clientTotals) record(rep *report) {
	rep.layer("client.redirects", "count", float64(t.redirects), 1)
	rep.layer("client.replay_requests", "count", float64(t.replayRequests), 1)
	rep.layer("client.replay_gap_frames", "count", float64(t.replayGapFrames), 1)
	rep.layer("client.duplicates_suppressed", "count", float64(t.duplicates), 1)
}

// cpuShareGroups maps a reported package group to the import paths it
// sums; the first matching group wins, so syscall precedes runtime.
var cpuShareGroups = []struct {
	name     string
	prefixes []string
}{
	{"broker", []string{"github.com/dynamoth/dynamoth/internal/broker."}},
	{"resp", []string{"github.com/dynamoth/dynamoth/internal/resp."}},
	{"message", []string{"github.com/dynamoth/dynamoth/internal/message."}},
	{"lla", []string{"github.com/dynamoth/dynamoth/internal/lla."}},
	{"obs_metrics", []string{"github.com/dynamoth/dynamoth/internal/obs.", "github.com/dynamoth/dynamoth/internal/metrics."}},
	{"hotstate", []string{"github.com/dynamoth/dynamoth/internal/hotstate."}},
	{"syscall", []string{"syscall.", "internal/runtime/syscall.", "golang.org/x/sys/"}},
	{"runtime", []string{"runtime.", "internal/runtime/", "runtime/"}},
}

// addCPUShare merges CPU profiles, sums their flat samples by package with
// the toolchain's pprof and records each group's share of all samples.
// Every node is listed (-nodefraction=0), and the total is the one pprof
// states in its header, so the shares are of the whole profile.
func addCPUShare(rep *report, binary string, profiles ...string) error {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-sample_index=samples", binary}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	var total float64
	share := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		// "Showing nodes accounting for 60, 100% of 60 total"
		if _, rest, ok := strings.Cut(line, "% of "); ok && strings.HasPrefix(line, "Showing nodes") {
			if total, err = strconv.ParseFloat(strings.TrimSuffix(rest, " total"), 64); err != nil {
				return fmt.Errorf("go tool pprof: reading total of %q: %w", line, err)
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		for _, g := range cpuShareGroups {
			matched := false
			for _, pre := range g.prefixes {
				if strings.HasPrefix(fn, pre) {
					matched = true
					break
				}
			}
			if matched {
				share[g.name] += flat
				break
			}
		}
	}
	for _, g := range cpuShareGroups {
		pct := 0.0
		if total > 0 {
			pct = 100 * share[g.name] / total
		}
		rep.layer("cpu_share."+g.name, "%", pct, uint64(total))
	}
	return nil
}

// replaySet is a workload's generated inputs, shaped for replay through
// each layer's public functions.
type replaySet struct {
	channels []string // one per publication, in order
	payload  int
	// subChannels are subscribed one each; patterns are PSUBSCRIBEd, on
	// one broker session shaped like the workload's subscriber.
	subChannels []string
	patterns    []string
	// churn is the channel of each SUBSCRIBE/UNSUBSCRIBE pair.
	churn []string
	// maxBps is T_i for the planner replay; servers its current plan.
	maxBps  float64
	servers []string
	rate    float64
}

const replayPublications = 50_000

func replayInputs(p params, spec tcpSpec) replaySet {
	seed := phaseSeed(p, 0, phaseFixed)
	r := replaySet{payload: spec.payload, patterns: spec.patterns, maxBps: 1.25e6, servers: []string{"bench"}, rate: spec.rate}
	for i := uint64(0); i < replayPublications; i++ {
		r.channels = append(r.channels, spec.channels[channelIndex(seed, phaseFixed, i, len(spec.channels))])
	}
	if spec.patterns == nil {
		r.subChannels = spec.channels
	}
	if spec.churnRate > 0 {
		for i := uint64(0); i < 4096; i++ {
			r.churn = append(r.churn, spec.channels[channelIndex(seed, 0, i, len(spec.channels))])
		}
	} else {
		r.churn = spec.channels
	}
	return r
}

// bench times f over passes of calls until budget is spent, returning
// ns/call, allocs/call and the call count. prepare, when set, runs untimed
// before each pass.
func bench(calls int, budget time.Duration, prepare func(), f func(i int)) (nsPer, allocsPer float64, n uint64) {
	var ms0, ms1 runtime.MemStats
	var spent time.Duration
	var mallocs uint64
	for spent < budget {
		if prepare != nil {
			prepare()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f(i)
		}
		spent += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		n += uint64(calls)
	}
	return float64(spent.Nanoseconds()) / float64(n), float64(mallocs) / float64(n), n
}

const replayBudget = 200 * time.Millisecond

// countingSink counts deliveries, patterned or not.
type countingSink struct{ n atomic.Uint64 }

func (c *countingSink) Deliver(string, []byte)                { c.n.Add(1) }
func (c *countingSink) DeliverPattern(string, string, []byte) { c.n.Add(1) }
func (c *countingSink) Closed(error)                          {}

// addReplays runs the workload's inputs through resp, message, localplan,
// lla, broker and balancer, single-threaded.
func addReplays(rep *report, r replaySet) error {
	now := time.Now()
	envs := make([]message.Envelope, len(r.channels))
	frames := make([][]byte, len(r.channels))
	payload := bytes.Repeat([]byte{'x'}, r.payload)
	for i, ch := range r.channels {
		envs[i] = message.Envelope{
			Type: message.TypeData, ID: message.ID{Node: 0xA001, Seq: uint64(i + 1)},
			Channel: ch, Payload: payload, Stamp: now.UnixNano(),
		}
		frames[i] = envs[i].Marshal()
	}
	calls := len(r.channels)

	var buf []byte
	ns, allocs, n := bench(calls, replayBudget, nil, func(i int) { buf = envs[i].AppendMarshal(buf[:0]) })
	rep.layer("message.marshal_ns", "ns", ns, n)
	rep.layer("message.marshal_allocs", "allocs", allocs, n)
	var unmarshalErr error
	ns, allocs, n = bench(calls, replayBudget, nil, func(i int) {
		if _, err := message.Unmarshal(frames[i]); err != nil {
			unmarshalErr = err
		}
	})
	if unmarshalErr != nil {
		return fmt.Errorf("message replay: %w", unmarshalErr)
	}
	rep.layer("message.unmarshal_ns", "ns", ns, n)
	rep.layer("message.unmarshal_allocs", "allocs", allocs, n)
	ns, _, n = bench(calls, replayBudget, nil, func(i int) { message.StampStages(frames[i], now.UnixNano(), now.UnixNano()) })
	rep.layer("message.stamp_stages_ns", "ns", ns, n)

	// RESP: the PUBLISH commands a client writes, fed in 16 KiB reads.
	var stream []byte
	for i, ch := range r.channels {
		stream = resp.AppendCommandStrings(stream, "PUBLISH", ch, string(frames[i]))
	}
	var parseErr error
	parsed := 0
	ns, allocs, n = bench(1, replayBudget, nil, func(int) {
		var cp resp.CommandParser
		for off := 0; off < len(stream); off += 16 << 10 {
			cp.Feed(stream[off:min(off+16<<10, len(stream))])
			for {
				args, err := cp.Next()
				if err != nil {
					parseErr = err
					return
				}
				if args == nil {
					break
				}
				parsed++
			}
		}
	})
	if parseErr != nil || parsed%calls != 0 {
		return fmt.Errorf("resp replay: parsed %d of %d commands: %v", parsed, calls, parseErr)
	}
	rep.layer("resp.parse_ns", "ns", ns/float64(calls), n*uint64(calls))
	rep.layer("resp.parse_allocs", "allocs", allocs/float64(calls), n*uint64(calls))

	store := localplan.New(r.servers, 0)
	ns, allocs, n = bench(calls, replayBudget, nil, func(i int) { store.Lookup(r.channels[i], now) })
	rep.layer("localplan.lookup_ns", "ns", ns, n)
	rep.layer("localplan.lookup_allocs", "allocs", allocs, n)

	receivers := max(1, len(r.patterns)/16)
	acc := lla.NewAccumulator()
	ns, _, n = bench(calls, replayBudget, nil, func(i int) { acc.OnPublish(r.channels[i], 0xA001, len(frames[i]), receivers) })
	rep.layer("lla.on_publish_ns", "ns", ns, n)

	if err := replayBroker(rep, r, frames); err != nil {
		return err
	}
	replayPlanner(rep, r, frames)
	return nil
}

// replayBroker publishes the frames through a broker whose one session is
// subscribed like the workload's subscriber, and replays the subscription
// churn on a second session.
func replayBroker(rep *report, r replaySet, frames [][]byte) error {
	br := broker.New(broker.Options{
		OutputBuffer: 1 << 20,
		ReplayDepth:  256,
		NowNanos:     func() int64 { return time.Now().UnixNano() },
	})
	defer br.Close()
	sink := &countingSink{}
	sess, err := br.Connect("replay-sub", sink)
	if err != nil {
		return fmt.Errorf("broker replay: %w", err)
	}
	if len(r.subChannels) > 0 {
		if _, err := sess.Subscribe(r.subChannels...); err != nil {
			return fmt.Errorf("broker replay: %w", err)
		}
	}
	if len(r.patterns) > 0 {
		if _, err := sess.PSubscribe(r.patterns...); err != nil {
			return fmt.Errorf("broker replay: %w", err)
		}
	}
	// Each pass publishes private copies (the broker stamps frames in
	// place) and waits, untimed, for the session writer to catch up.
	work := make([][]byte, len(frames))
	var want, got uint64
	prepare := func() {
		for deadline := time.Now().Add(5 * time.Second); sink.n.Load() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		for i, f := range frames {
			work[i] = append(work[i][:0], f...)
		}
	}
	ns, allocs, n := bench(len(frames), replayBudget, prepare, func(i int) {
		k := uint64(br.Publish(r.channels[i], work[i]))
		want += k
		got += k
	})
	prepare()
	if got == 0 || sink.n.Load() != want {
		return fmt.Errorf("broker replay: %d of %d deliveries reached the sink", sink.n.Load(), want)
	}
	rep.layer("broker.publish_ns", "ns", ns, n)
	rep.layer("broker.publish_allocs", "allocs", allocs, n)

	churn, err := br.Connect("replay-churn", &countingSink{})
	if err != nil {
		return fmt.Errorf("broker replay: %w", err)
	}
	var subErr error
	ns, _, n = bench(len(r.churn), replayBudget, func() {
		if _, err := churn.Unsubscribe(r.churn...); err != nil {
			subErr = err
		}
	}, func(i int) {
		if _, err := churn.Subscribe(r.churn[i]); err != nil {
			subErr = err
		}
	})
	rep.layer("broker.subscribe_ns", "ns", ns, n)
	nsU, _, nU := bench(len(r.churn), replayBudget, func() {
		if _, err := churn.Subscribe(r.churn...); err != nil {
			subErr = err
		}
	}, func(i int) {
		if _, err := churn.Unsubscribe(r.churn[i]); err != nil {
			subErr = err
		}
	})
	rep.layer("broker.unsubscribe_ns", "ns", nsU, nU)
	if subErr != nil {
		return fmt.Errorf("broker replay: %w", subErr)
	}
	return nil
}

// replayPlanner runs one planning round over the load the workload's
// publications put on its servers.
func replayPlanner(rep *report, r replaySet, frames [][]byte) {
	chans := map[string]balancer.ChannelLoad{}
	perPub := r.rate / float64(len(r.channels))
	for i, ch := range r.channels {
		cl := chans[ch]
		cl.Publications += perPub
		cl.Subscribers = 1
		cl.MessagesSent += perPub
		cl.BytesIn += perPub * float64(len(frames[i]))
		cl.BytesOut += perPub * float64(len(frames[i]))
		chans[ch] = cl
	}
	loads := make([]balancer.ServerLoad, len(r.servers))
	for i, id := range r.servers {
		loads[i] = balancer.ServerLoad{Server: id, MaxBps: r.maxBps, Channels: map[string]balancer.ChannelLoad{}}
	}
	names := make([]string, 0, len(chans))
	for ch := range chans {
		names = append(names, ch)
	}
	sort.Strings(names)
	for i, ch := range names {
		l := &loads[i%len(loads)]
		l.Channels[ch] = chans[ch]
		l.MeasuredBps += chans[ch].BytesOut
	}
	current := plan.New(r.servers...)
	cfg := balancer.DefaultConfig()
	ns, _, n := bench(1, replayBudget, nil, func(int) {
		pl := balancer.NewPlanner(cfg, plan.IsControlChannel, nil, r.maxBps)
		_ = pl.GeneratePlan(current, loads)
	})
	rep.layer("balancer.generate_plan_ns", "ns", ns, n)
}
