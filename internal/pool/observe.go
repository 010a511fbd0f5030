package pool

import (
	"time"

	"ironman/internal/obs"
)

// Observer is one pool half's instrument set, and its only counters:
// every draw, refill and wait updates these instruments under the
// stream's lock, and Stats reads them back under the same lock, so a
// registry scrape and Stats() are two reads of one set of values (the
// otserv STATS endpoint and /metrics rely on this). It also feeds two
// latency histograms Stats cannot express: draw-wait time and
// source-refill time.
type Observer struct {
	draws        *obs.Counter // ironman_pool_draws_total
	blockedDraws *obs.Counter // ironman_pool_blocked_draws_total
	stalledDraws *obs.Counter // ironman_pool_stalled_draws_total
	refills      *obs.Counter // ironman_pool_refills_total
	generated    *obs.Counter // ironman_pool_generated_total
	dispensed    *obs.Counter // ironman_pool_dispensed_total
	blockedNS    *obs.Counter // ironman_pool_blocked_ns_total
	buffered     *obs.Gauge   // ironman_pool_buffered
	drawWait     *obs.Histogram
	refillDur    *obs.Histogram
}

// NewObserver registers one pool half's instrument set under the given
// label set (obs.Labels format; typically session and half). A nil
// registry yields live instruments in a private registry nobody
// serves: the half counts all the same, and only Stats reads it.
func NewObserver(reg *obs.Registry, labels string) *Observer {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Observer{
		draws:        reg.Counter(obs.Name("ironman_pool_draws_total", labels)),
		blockedDraws: reg.Counter(obs.Name("ironman_pool_blocked_draws_total", labels)),
		stalledDraws: reg.Counter(obs.Name("ironman_pool_stalled_draws_total", labels)),
		refills:      reg.Counter(obs.Name("ironman_pool_refills_total", labels)),
		generated:    reg.Counter(obs.Name("ironman_pool_generated_total", labels)),
		dispensed:    reg.Counter(obs.Name("ironman_pool_dispensed_total", labels)),
		blockedNS:    reg.Counter(obs.Name("ironman_pool_blocked_ns_total", labels)),
		buffered:     reg.Gauge(obs.Name("ironman_pool_buffered", labels)),
		drawWait:     reg.Histogram(obs.Name("ironman_pool_draw_wait_seconds", labels)),
		refillDur:    reg.Histogram(obs.Name("ironman_pool_refill_seconds", labels)),
	}
}

func (o *Observer) noteDispensed(n, buffered int) {
	o.dispensed.Add(uint64(n))
	o.buffered.Set(int64(buffered))
}

func (o *Observer) noteRefill(n, buffered int, dur time.Duration) {
	o.refills.Inc()
	o.generated.Add(uint64(n))
	o.buffered.Set(int64(buffered))
	o.refillDur.Observe(dur.Seconds())
}

func (o *Observer) noteBlockedTime(d time.Duration) {
	o.blockedNS.Add(uint64(d.Nanoseconds()))
	o.drawWait.Observe(d.Seconds())
}

// snapshot reads the instruments back in Stats shape.
func (o *Observer) snapshot() Stats {
	return Stats{
		Generated:    o.generated.Value(),
		Dispensed:    o.dispensed.Value(),
		Refills:      o.refills.Value(),
		Draws:        o.draws.Value(),
		BlockedDraws: o.blockedDraws.Value(),
		BlockedTime:  time.Duration(o.blockedNS.Value()),
		Buffered:     int(o.buffered.Value()),
	}
}
