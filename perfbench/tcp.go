package main

// The pipeline and churn workloads: the real dynamoth-node subprocess over
// loopback TCP, driven by real clients from this process over exactly two
// sockets.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/loadgen"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// tcpSpec describes one TCP workload's traffic.
type tcpSpec struct {
	name     string
	channels []string
	payload  int
	rate     float64
	arrival  loadgen.Arrival
	// slots is how many deliveries each publication owes.
	slots int
	// patterns, when set, are PSUBSCRIBEd on a raw RESP connection that is
	// the only subscriber; patternSlot maps each to its receiver slot.
	patterns    []string
	patternSlot map[string]int
	// churnRate is the SUBSCRIBE/UNSUBSCRIBE pair rate on the raw connection.
	churnRate float64
}

// saturationWindow is how many deliveries the saturation phase keeps
// outstanding, and the most the loaded phase lets be. It stays well inside
// the node's per-session output buffer (2000 messages), so neither phase
// trips the slow-consumer cut-off.
const saturationWindow = 1024

// loadedFactor is the loaded phase's rate as a multiple of the workload's
// base rate. The gated CPU figures are taken there: the rate is fixed, so a
// slower host makes the node batch more messages per wakeup instead of
// delivering fewer, and the offered load keeps a margin below what a
// 2-vCPU host sustains even when it is slowed. At this rate a stall of
// some 30 ms would fill a session's output buffer, so the phase also keeps
// at most saturationWindow deliveries outstanding.
const loadedFactor = 3

func pipelineSpec(scale float64) tcpSpec {
	s := tcpSpec{
		name:    "pipeline",
		payload: 64,
		rate:    20_000 * scale,
		arrival: loadgen.ArrivalPeriodic,
		slots:   1,
	}
	for i := 0; i < 256; i++ {
		s.channels = append(s.channels, fmt.Sprintf("pl.%d", i))
	}
	return s
}

// churnSpec names its 512 channels ch.<x>.<z>.<w> with one hex digit each
// (x = i%16, z = i/16%16, w = i/256). The 32 globs ch.<x>.* and ch.*.<z>.*
// match every channel exactly twice.
func churnSpec(scale float64) tcpSpec {
	s := tcpSpec{
		name:        "churn",
		payload:     200,
		rate:        10_000 * scale,
		arrival:     loadgen.ArrivalPoisson,
		slots:       2,
		patternSlot: map[string]int{},
		churnRate:   2_000 * scale,
	}
	for i := 0; i < 512; i++ {
		s.channels = append(s.channels, fmt.Sprintf("ch.%x.%x.%x", i%16, i/16%16, i/256))
	}
	for d := 0; d < 16; d++ {
		a, b := fmt.Sprintf("ch.%x.*", d), fmt.Sprintf("ch.*.%x.*", d)
		s.patterns = append(s.patterns, a, b)
		s.patternSlot[a], s.patternSlot[b] = 0, 1
	}
	return s
}

// recordingDialer is a TCP dialer that remembers the connections it opened,
// so a traced run can sample their pipelined-publish backlog.
type recordingDialer struct {
	*transport.TCPDialer
	mu    sync.Mutex
	conns []transport.Conn
}

func (d *recordingDialer) Dial(server plan.ServerID, h transport.Handler) (transport.Conn, error) {
	c, err := d.TCPDialer.Dial(server, h)
	if err == nil {
		d.mu.Lock()
		d.conns = append(d.conns, c)
		d.mu.Unlock()
	}
	return c, err
}

// outstanding sums Outstanding() over the dialed connections.
func (d *recordingDialer) outstanding() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for _, c := range d.conns {
		if o, ok := c.(interface{ Outstanding() int64 }); ok {
			n += o.Outstanding()
		}
	}
	return n
}

// tcpSystem is one set-up node with its clients.
type tcpSystem struct {
	spec    tcpSpec
	node    *nodeProc
	rec     *loadgen.Recorder
	pub     *dynamoth.Client
	pubDial *recordingDialer
	sub     *dynamoth.Client // pipeline's subscriber
	raw     *rawSubscriber   // churn's subscriber
	ledgers [numPhases]atomic.Pointer[ledger]
	stray   atomic.Uint64 // deliveries or frames the harness cannot attribute
	readers sync.WaitGroup
}

var nextNodeID atomic.Uint32

func connectClient(addr string) (*dynamoth.Client, *recordingDialer, error) {
	d := &recordingDialer{TCPDialer: transport.NewTCPDialer(map[plan.ServerID]string{"bench": addr})}
	c, err := dynamoth.ConnectWithDialer(d, []string{"bench"}, dynamoth.Config{
		NodeID: 0xA000 + nextNodeID.Add(1),
		// Room for a whole saturation window on one channel, so the
		// harness never makes the client drop.
		SubscribeBuffer: 4 * saturationWindow,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("connecting client: %w", err)
	}
	return c, d, nil
}

// setupTCP boots a node and connects the workload's two sockets, returning
// once every subscription is in place on the broker.
func setupTCP(p params, spec tcpSpec) (*tcpSystem, error) {
	node, err := startNode(p.nodeBin)
	if err != nil {
		return nil, err
	}
	s := &tcpSystem{spec: spec, node: node, rec: loadgen.NewRecorder()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if spec.patterns != nil {
		if s.raw, err = dialRawSubscriber(node.respAddr, spec.patterns, s); err != nil {
			return nil, err
		}
		if s.pub, s.pubDial, err = connectClient(node.respAddr); err != nil {
			return nil, err
		}
		ok = true
		return s, nil
	}
	base, err := node.gauge(channelsGauge)
	if err != nil {
		return nil, err
	}
	if s.sub, _, err = connectClient(node.respAddr); err != nil {
		return nil, err
	}
	if s.pub, s.pubDial, err = connectClient(node.respAddr); err != nil {
		return nil, err
	}
	for _, ch := range spec.channels {
		msgs, err := s.sub.Subscribe(ch)
		if err != nil {
			return nil, fmt.Errorf("subscribing %s: %w", ch, err)
		}
		s.readers.Add(1)
		go func() {
			defer s.readers.Done()
			for m := range msgs {
				s.deliver(m.Payload, 0)
			}
		}()
	}
	// Subscribe is pipelined, so wait until the broker holds every channel
	// plus both clients' inboxes.
	if err := node.awaitGauge(channelsGauge, base+float64(len(spec.channels)+2), 30*time.Second); err != nil {
		return nil, fmt.Errorf("subscription barrier: %w", err)
	}
	ok = true
	return s, nil
}

// channelsGauge is the broker's channel count on /metrics: the
// subscription barrier's signal.
const channelsGauge = "dynamoth_broker_channels"

func (s *tcpSystem) close() {
	if s.pub != nil {
		s.pub.Close()
	}
	if s.sub != nil {
		s.sub.Close()
	}
	if s.raw != nil {
		s.raw.close()
	}
	s.readers.Wait()
	s.node.stop()
}

// deliver routes one received payload to its phase's ledger.
func (s *tcpSystem) deliver(payload []byte, slot int) {
	now := time.Now()
	intended, phase, seq, ok := parsePayload(payload)
	if !ok {
		s.stray.Add(1)
		return
	}
	led := s.ledgers[phase].Load()
	if led == nil {
		s.stray.Add(1)
		return
	}
	if slot < 0 {
		led.extra.Add(1)
		return
	}
	led.observe(seq, slot, intended, now)
}

// newLedger installs a fresh ledger for phase.
func (s *tcpSystem) newLedger(phase int, capacity uint64, timed bool, window int) *ledger {
	led := newLedger(capacity, s.spec.slots, s.rec.Epoch(), timed, window, &dropBudget)
	s.ledgers[phase].Store(led)
	return led
}

// dropBudget is the harness-side drop count the smoke test asks for.
var dropBudget atomic.Int64

// rawSubscriber is churn's subscriber: one raw RESP connection holding the
// pattern subscriptions and running SUBSCRIBE/UNSUBSCRIBE churn, the way a
// presence service would.
type rawSubscriber struct {
	conn net.Conn
	sys  *tcpSystem
	done chan struct{}

	mu sync.Mutex
	// pending holds the intended instants of SUBSCRIBEs not yet acked;
	// acks holds each acked one's latency from its intended instant.
	pending []time.Duration
	acks    []time.Duration
}

func dialRawSubscriber(addr string, patterns []string, sys *tcpSystem) (*rawSubscriber, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing raw subscriber: %w", err)
	}
	r := &rawSubscriber{conn: conn, sys: sys, done: make(chan struct{})}
	var cmd []byte
	for _, pat := range patterns {
		cmd = resp.AppendCommandStrings(cmd, "PSUBSCRIBE", pat)
	}
	if _, err := conn.Write(cmd); err != nil {
		conn.Close()
		return nil, fmt.Errorf("psubscribe: %w", err)
	}
	rd := resp.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a failed deadline only loses the timeout
	for range patterns {
		v, err := rd.ReadValue()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("psubscribe ack: %w", err)
		}
		if v.Kind != resp.KindArray || len(v.Array) != 3 || string(v.Array[0].Str) != "psubscribe" {
			conn.Close()
			return nil, fmt.Errorf("unexpected psubscribe reply")
		}
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // see above
	sys.readers.Add(1)
	go func() {
		defer sys.readers.Done()
		defer close(r.done)
		r.read(rd)
	}()
	return r, nil
}

// read consumes frames until the connection closes.
func (r *rawSubscriber) read(rd *resp.Reader) {
	for {
		v, err := rd.ReadValue()
		if err != nil {
			return
		}
		if v.Kind != resp.KindArray || len(v.Array) < 3 {
			r.sys.stray.Add(1) // an error reply or a frame no command asked for
			continue
		}
		switch string(v.Array[0].Str) {
		case "pmessage":
			slot, ok := r.sys.spec.patternSlot[string(v.Array[1].Str)]
			if !ok || len(v.Array) != 4 {
				r.sys.stray.Add(1)
				continue
			}
			r.envelope(v.Array[3].Str, slot)
		case "message":
			r.envelope(v.Array[2].Str, -1)
		case "subscribe":
			now := r.sys.rec.Since()
			r.mu.Lock()
			if len(r.pending) > 0 {
				r.acks = append(r.acks, now-r.pending[0])
				r.pending = r.pending[1:]
			}
			r.mu.Unlock()
		case "unsubscribe":
		default:
			r.sys.stray.Add(1)
		}
	}
}

// envelope unwraps a client publication and delivers its payload.
func (r *rawSubscriber) envelope(frame []byte, slot int) {
	env, err := message.Unmarshal(frame)
	if err != nil {
		r.sys.stray.Add(1)
		return
	}
	r.sys.deliver(env.Payload, slot)
}

func (r *rawSubscriber) close() {
	r.conn.Close()
	<-r.done
}

// churn runs SUBSCRIBE/UNSUBSCRIBE pairs on published channels at rate for
// d: each tick subscribes one seeded channel and unsubscribes the one
// subscribed churnHold ticks earlier.
func (r *rawSubscriber) churn(rate float64, d time.Duration, seed int64, channels []string) error {
	const churnHold = 8
	held := make([]string, 0, churnHold+1)
	ticks := loadgen.NewSchedule(loadgen.ArrivalPoisson, rate, 0, seed).Ticks()
	start := r.sys.rec.Since()
	var sent uint64
	var cmd []byte
	for {
		at := ticks.Next()
		if at >= d {
			break
		}
		intended := start + at
		if wait := intended - r.sys.rec.Since(); wait > 0 {
			time.Sleep(wait)
		}
		ch := channels[channelIndex(seed, 0, sent, len(channels))]
		cmd = resp.AppendCommandStrings(cmd[:0], "SUBSCRIBE", ch)
		held = append(held, ch)
		if len(held) > churnHold {
			cmd = resp.AppendCommandStrings(cmd, "UNSUBSCRIBE", held[0])
			held = held[1:]
		}
		r.mu.Lock()
		r.pending = append(r.pending, intended)
		r.mu.Unlock()
		if _, err := r.conn.Write(cmd); err != nil {
			return fmt.Errorf("churn write: %w", err)
		}
		sent++
	}
	if len(held) > 0 {
		if _, err := r.conn.Write(resp.AppendCommandStrings(nil, "UNSUBSCRIBE", held...)); err != nil {
			return fmt.Errorf("churn write: %w", err)
		}
	}
	return nil
}

// takeAcks returns and clears the SUBSCRIBE ack latencies, and how many
// SUBSCRIBEs are still unacked.
func (r *rawSubscriber) takeAcks() ([]time.Duration, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.acks
	r.acks = nil
	return a, len(r.pending)
}
