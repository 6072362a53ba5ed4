package main

// Workload registry and the phases every workload shares: an open-loop
// fixed-rate phase timed from intended send instants, and a closed-loop
// saturation phase.

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/dynamoth/dynamoth/internal/loadgen"
)

type workload struct {
	needsNode bool
	run       func(params) (*report, error)
}

var workloads = map[string]workload{
	"pipeline":  {needsNode: true, run: runPipeline},
	"churn":     {needsNode: true, run: runChurn},
	"rebalance": {needsNode: false, run: runRebalance},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generator health limits. Send lag is how late the generator issued a
// publication after its intended instant; latency is charged from the
// intended instant either way, but a generator that cannot keep its
// schedule measures itself rather than the system, so such a run is not
// scored.
const (
	maxSendLagP99 = 20 * time.Millisecond
	maxSendLagMax = 500 * time.Millisecond
)

// maxLoadedLagP50 is the loaded phase's own limit. Its latency is not
// reported, so a short stall that the generator catches up on does not
// spoil it; the phase is scored when most publications went out on
// schedule and none waited longer than maxSendLagMax.
const maxLoadedLagP50 = 20 * time.Millisecond

// channelIndex picks a publication's channel: a seeded hash of its phase
// and sequence number, so inputs repeat exactly for a seed.
func channelIndex(seed int64, phase int, seq uint64, n int) int {
	return int(splitmix64(uint64(seed)*0x9e3779b97f4a7c15^uint64(phase)<<56^seq) % uint64(n))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// publishFunc hands one payload to the system under test.
type publishFunc func(channel string, payload []byte) error

// openLoop is one fixed-rate phase's settings.
type openLoop struct {
	phase    int
	rate     float64
	arrival  loadgen.Arrival
	duration time.Duration
	seed     int64
	payload  int
	channels []string
	publish  publishFunc
	// spans, when non-nil, receives the duration of every publish call
	// (traced runs only).
	spans *[]time.Duration
}

// runOpenLoop drives one phase on the loadgen schedule: each publication is
// stamped with its intended instant and sent when due, whether or not
// earlier ones were delivered. A publisher that falls behind catches up
// without re-planning, so its lateness stays in the latency it measures.
// A ledger with a window also holds each publication until fewer than the
// window's deliveries are outstanding; the wait counts as send lag.
// It returns every publication's send lag, sorted.
func runOpenLoop(rec *loadgen.Recorder, led *ledger, o openLoop) ([]time.Duration, error) {
	lags := make([]time.Duration, 0, led.capacity())
	buf := make([]byte, 0, o.payload+64)
	ticks := loadgen.NewSchedule(o.arrival, o.rate, 0, o.seed).Ticks()
	p := newPacer()
	defer p.release()
	start := rec.Since()
	var refused uint64
	for seq := uint64(0); ; seq++ {
		off := ticks.Next()
		if off >= o.duration {
			break
		}
		if seq >= led.capacity() {
			return nil, fmt.Errorf("schedule overran the ledger")
		}
		intended := start + off
		p.until(rec, intended)
		if led.tokens != nil {
			for s := 0; s < led.slots; s++ {
				<-led.tokens
			}
		}
		actual := rec.Since()
		lags = append(lags, actual-intended)
		ch := o.channels[channelIndex(o.seed, o.phase, seq, len(o.channels))]
		buf = appendPayload(buf[:0], intended, actual, o.phase, seq, o.payload)
		var err error
		if o.spans != nil {
			t0 := time.Now()
			err = o.publish(ch, buf)
			*o.spans = append(*o.spans, time.Since(t0))
		} else {
			err = o.publish(ch, buf)
		}
		if err != nil {
			refused++
		}
		led.sent(seq, err)
	}
	if n := led.published.Load(); n > 0 && refused == n {
		return nil, fmt.Errorf("every publish failed")
	}
	sortDurations(lags)
	return lags, nil
}

// pacer sleeps a publisher until each intended instant. Go's runtime rounds
// a timer sleep up to a whole millisecond when the process is otherwise
// idle, which would send a 20k msg/s schedule in 1 ms bursts and charge
// the burst to the system; so the last stretch before each instant is
// slept with nanosleep(2) on a thread locked to the publisher, with the
// thread's timer slack cut to 1 µs.
type pacer struct{}

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK from <linux/prctl.h>

func newPacer() pacer {
	runtime.LockOSThread()
	// Best effort: without it nanosleep keeps the default 50 µs slack.
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) //nolint:errcheck
	return pacer{}
}

// release returns the thread to the scheduler. The thread keeps its short
// slack, which only makes its later sleeps more precise.
func (pacer) release() { runtime.UnlockOSThread() }

func (pacer) until(rec *loadgen.Recorder, at time.Duration) {
	for {
		wait := at - rec.Since()
		switch {
		case wait <= 0:
			return
		case wait > 2*time.Millisecond:
			time.Sleep(wait - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep loops
		}
	}
}

// checkLag rejects a phase whose generator fell behind its schedule.
func checkLag(lags []time.Duration) error {
	p99, max := quantile(lags, 0.99), quantile(lags, 1)
	if p99 > maxSendLagP99 || max > maxSendLagMax {
		return fmt.Errorf("%w: generator send lag p99 %v, max %v (limits %v, %v)",
			errInvalidRun, p99, max, maxSendLagP99, maxSendLagMax)
	}
	return nil
}

// checkLoadedLag rejects a loaded phase that did not run at its rate.
func checkLoadedLag(lags []time.Duration) error {
	p50, max := quantile(lags, 0.5), quantile(lags, 1)
	if p50 > maxLoadedLagP50 || max > maxSendLagMax {
		return fmt.Errorf("%w: loaded-phase send lag p50 %v, max %v (limits %v, %v)",
			errInvalidRun, p50, max, maxLoadedLagP50, maxSendLagMax)
	}
	return nil
}

// closedLoop is the saturation phase's settings; the ledger's window
// bounds the deliveries outstanding.
type closedLoop struct {
	duration time.Duration
	seed     int64
	payload  int
	channels []string
	publish  publishFunc
}

// saturationCapacity bounds how many publications a closed-loop phase may
// track: far above what a 2-vCPU host sustains.
func saturationCapacity(d time.Duration) uint64 {
	return uint64(400_000 * d.Seconds())
}

// runClosedLoop publishes as fast as the system delivers, keeping the
// ledger's window of deliveries outstanding, until the phase's duration has
// passed.
func runClosedLoop(rec *loadgen.Recorder, led *ledger, c closedLoop) error {
	buf := make([]byte, 0, c.payload+64)
	end := time.NewTimer(c.duration)
	defer end.Stop()
	var seq uint64
publish:
	for ; seq < led.capacity(); seq++ {
		for s := 0; s < led.slots; s++ {
			select {
			case <-led.tokens:
			case <-end.C:
				break publish
			}
		}
		now := rec.Since()
		ch := c.channels[channelIndex(c.seed, phaseSaturated, seq, len(c.channels))]
		buf = appendPayload(buf[:0], now, now, phaseSaturated, seq, c.payload)
		led.sent(seq, c.publish(ch, buf))
	}
	if seq == led.capacity() {
		return fmt.Errorf("saturation phase outran its ledger capacity %d", led.capacity())
	}
	return nil
}

// cpuMeter reads the CPU time of the system under test and of this
// process, so a phase can charge the CPU it used to its deliveries.
type cpuMeter struct {
	sysCPU      func() (time.Duration, error)
	sys0, self0 time.Duration
	delivered   func() uint64
	delivered0  uint64
}

func startCPU(sysCPU func() (time.Duration, error), delivered func() uint64) (*cpuMeter, error) {
	m := &cpuMeter{sysCPU: sysCPU, delivered: delivered}
	var err error
	if m.sys0, err = sysCPU(); err != nil {
		return nil, err
	}
	m.self0, m.delivered0 = selfCPU(), delivered()
	return m, nil
}

// perMessage returns the system's and this process's CPU microseconds per
// delivery since the meter started.
func (m *cpuMeter) perMessage() (sys, self float64, err error) {
	sys1, err := m.sysCPU()
	if err != nil {
		return 0, 0, err
	}
	n := float64(max(m.delivered()-m.delivered0, 1))
	return us(sys1-m.sys0) / n, us(selfCPU()-m.self0) / n, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func medianDuration(v []time.Duration) time.Duration {
	s := append([]time.Duration(nil), v...)
	sortDurations(s)
	return quantile(s, 0.5)
}
