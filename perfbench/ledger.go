package main

// Delivery accounting. Every publication carries, after the loadgen stamp
// of its intended and actual send instants, a tag naming its phase and
// sequence number. A ledger per phase counts the deliveries of each
// (publication, receiver slot) pair, so after the phase drains it can say
// exactly which publications were lost, duplicated, refused or corrupted.

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/loadgen"
)

// Phases of a run; the digit is written into every payload.
const (
	phaseWarmup = iota
	phaseFixed
	phaseSaturated
	phaseTraced
	phaseLoaded
	numPhases
)

// appendPayload builds a stamped, tagged payload of size bytes.
func appendPayload(dst []byte, intended, actual time.Duration, phase int, seq uint64, size int) []byte {
	start := len(dst)
	dst = loadgen.AppendStamp(dst, intended, actual, 0)
	dst = append(dst, byte('0'+phase), ':')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	for len(dst)-start < size {
		dst = append(dst, 'x')
	}
	return dst
}

// parsePayload reads the stamp and tag back off a payload.
func parsePayload(p []byte) (intended time.Duration, phase int, seq uint64, ok bool) {
	intended, _, ok = loadgen.ParseStamp(p)
	if !ok {
		return 0, 0, 0, false
	}
	// Skip the two stamp fields.
	for spaces := 0; spaces < 2; p = p[1:] {
		if p[0] == ' ' {
			spaces++
		}
	}
	if len(p) < 4 || p[0] < '0' || p[0] >= '0'+numPhases || p[1] != ':' {
		return 0, 0, 0, false
	}
	phase = int(p[0] - '0')
	i := 2
	for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
		seq = seq*10 + uint64(p[i]-'0')
	}
	if i == 2 || i >= len(p) || p[i] != ' ' {
		return 0, 0, 0, false
	}
	return intended, phase, seq, true
}

// ledger accounts one phase's publications. Each publication expects one
// delivery per receiver slot (a churn publication is matched by two
// patterns, so it has two slots).
type ledger struct {
	slots int
	epoch time.Time
	// counts[seq*slots+slot] is how often that delivery arrived; latNs holds
	// its first arrival's latency from the intended send instant.
	counts []atomic.Uint32
	latNs  []atomic.Int64
	// refused marks publications Publish rejected. Only the publishing
	// goroutine writes it, before the phase's publisher returns.
	refused []bool

	published atomic.Uint64 // publications handed to Publish
	delivered atomic.Uint64 // slot deliveries, duplicates included
	stampErrs atomic.Uint64 // deliveries with an unreadable or out-of-range tag
	extra     atomic.Uint64 // valid deliveries outside the slots
	dropLeft  *atomic.Int64 // deliberate harness-side drops still to make
	// tokens, in a closed-loop phase, receives one token per first
	// delivery; the publisher spends slots tokens per publication.
	tokens chan struct{}
}

// newLedger tracks up to capacity publications. timed keeps each
// delivery's latency; window > 0 makes it a closed-loop ledger that lets
// window deliveries be outstanding at once.
func newLedger(capacity uint64, slots int, epoch time.Time, timed bool, window int, drop *atomic.Int64) *ledger {
	l := &ledger{
		slots:    slots,
		epoch:    epoch,
		counts:   make([]atomic.Uint32, capacity*uint64(slots)),
		refused:  make([]bool, capacity),
		dropLeft: drop,
	}
	if timed {
		l.latNs = make([]atomic.Int64, capacity*uint64(slots))
	}
	if window > 0 {
		l.tokens = make(chan struct{}, window)
		for i := 0; i < cap(l.tokens); i++ {
			l.tokens <- struct{}{}
		}
	}
	return l
}

// capacity is how many publications the ledger can track.
func (l *ledger) capacity() uint64 { return uint64(len(l.refused)) }

// sent records one publication attempt.
func (l *ledger) sent(seq uint64, err error) {
	if err != nil {
		l.refused[seq] = true
	}
	l.published.Add(1)
}

// observe records one delivery of seq to slot at arrival instant now.
func (l *ledger) observe(seq uint64, slot int, intended time.Duration, now time.Time) {
	if l.dropLeft != nil && l.dropLeft.Load() > 0 && l.dropLeft.Add(-1) >= 0 {
		return
	}
	if seq >= l.capacity() || slot < 0 || slot >= l.slots {
		l.stampErrs.Add(1)
		return
	}
	i := seq*uint64(l.slots) + uint64(slot)
	if l.counts[i].Add(1) == 1 {
		if l.latNs != nil {
			l.latNs[i].Store(int64(now.Sub(l.epoch) - intended))
		}
		if l.tokens != nil {
			select {
			case l.tokens <- struct{}{}:
			default:
			}
		}
	}
	l.delivered.Add(1)
}

// expected is how many slot deliveries the accepted publications owe.
func (l *ledger) expected() uint64 {
	n := l.published.Load()
	var refused uint64
	for _, r := range l.refused[:n] {
		if r {
			refused++
		}
	}
	return (n - refused) * uint64(l.slots)
}

// outcome is a drained ledger's verdict.
type outcome struct {
	attempted, lost, duplicated, refused, stampErrs uint64
	latencies                                       []time.Duration // sorted, first deliveries only
}

func (o outcome) failed() uint64 { return o.lost + o.duplicated + o.refused + o.stampErrs }

func (o outcome) problems(phase string) []string {
	if o.failed() == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s phase: %d lost, %d duplicated, %d refused, %d bad stamps of %d deliveries",
		phase, o.lost, o.duplicated, o.refused, o.stampErrs, o.attempted)}
}

// settle reads the verdict; call it once the phase has drained.
func (l *ledger) settle() outcome {
	n := l.published.Load()
	o := outcome{attempted: n * uint64(l.slots), stampErrs: l.stampErrs.Load()}
	if l.latNs != nil {
		o.latencies = make([]time.Duration, 0, o.attempted)
	}
	for seq := uint64(0); seq < n; seq++ {
		if l.refused[seq] {
			o.refused += uint64(l.slots)
			continue
		}
		for s := 0; s < l.slots; s++ {
			i := seq*uint64(l.slots) + uint64(s)
			switch c := l.counts[i].Load(); {
			case c == 0:
				o.lost++
			default:
				o.duplicated += uint64(c - 1)
				if l.latNs != nil {
					o.latencies = append(o.latencies, time.Duration(l.latNs[i].Load()))
				}
			}
		}
	}
	sortDurations(o.latencies)
	return o
}

// drain waits until every owed delivery has arrived, or until none has
// arrived for idle, or limit passes.
func (l *ledger) drain(idle, limit time.Duration) {
	deadline := time.Now().Add(limit)
	last, lastMove := l.delivered.Load(), time.Now()
	for time.Now().Before(deadline) {
		cur := l.delivered.Load()
		if cur >= l.expected() {
			return
		}
		if cur != last {
			last, lastMove = cur, time.Now()
		} else if time.Since(lastMove) > idle {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile[T int64 | time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
