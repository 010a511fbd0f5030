package extension

import (
	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/spcot"
	"ironman/internal/transport"
)

// ferretBackend adapts internal/ferret (PCG-style LPN extension, the
// paper's design point) to the Backend contract. The ferret endpoints
// satisfy the Sender/Receiver interfaces directly; only construction
// needs adapting.
type ferretBackend struct{}

func (ferretBackend) Name() string { return "ferret" }

// Batch: each Extend yields N outputs and re-reserves the tail for the
// next iteration.
func (ferretBackend) Batch(p Params) int { return p.Usable() }

// options maps o onto ferret's.
func (ferretBackend) options(o Options) ferret.Options {
	return ferret.Options{Workers: o.Workers, Seed: o.Seed, Trace: o.Trace}
}

// Cost: an Extend's only traffic is its T trees' SPCOT puncturing, one
// chosen-OT exchange sized by spcot; the LPN encode is local. Verified
// byte-for-byte against the measured transcript by the extend bench.
func (b ferretBackend) Cost(p Params, _ Options) Cost {
	extend := spcot.ExchangeBytes(ferret.TreePRG, p.L, p.T)
	return Cost{
		ExtendBytes: extend,
		BytesPerCOT: float64(extend) / float64(b.Batch(p)),
		Rounds:      2,   // corrections out, one reply back
		BaseOTs:     128, // IKNP init (skipped by DealPair)
	}
}

func (b ferretBackend) NewSender(conn transport.Conn, delta block.Block, p Params, o Options) (Sender, error) {
	return sender(ferret.NewSender(conn, delta, p, b.options(o)))
}

func (b ferretBackend) NewReceiver(conn transport.Conn, p Params, o Options) (Receiver, error) {
	return receiver(ferret.NewReceiver(conn, p, b.options(o)))
}

func (b ferretBackend) DealPair(connS, connR transport.Conn, delta block.Block, p Params, o Options) (Sender, Receiver, error) {
	return pair(ferret.DealPools(connS, connR, delta, p, b.options(o)))
}
