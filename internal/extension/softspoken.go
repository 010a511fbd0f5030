package extension

import (
	"ironman/internal/block"
	"ironman/internal/softspoken"
	"ironman/internal/transport"
)

// softSpokenBackend adapts internal/softspoken (small-field
// subfield-VOLE, eprint 2022/192) to the Backend contract. The
// softspoken endpoints satisfy the Sender/Receiver interfaces
// directly; only construction needs adapting.
type softSpokenBackend struct{}

func (softSpokenBackend) Name() string { return "softspoken" }

// Batch: SoftSpoken has no LPN reserve — a parameter set's nominal
// NumOTs is produced wholesale. Parameter sets without a nominal count
// (tests) fall back to the ferret-comparable Usable(), rounded to the
// byte multiple the construction needs.
func (softSpokenBackend) Batch(p Params) int {
	if p.NumOTs > 0 {
		return p.NumOTs
	}
	return p.Usable() &^ 7
}

func (softSpokenBackend) options(o Options) softspoken.Options {
	return softspoken.Options{Workers: o.Workers, Seed: o.Seed, Trace: o.Trace}
}

// Cost: one receiver→sender message per Extend, sized exactly by
// softspoken.WireBytes (asserted byte-for-byte by the extend bench).
func (b softSpokenBackend) Cost(p Params, _ Options) Cost {
	n := b.Batch(p)
	extend := softspoken.WireBytes(n)
	return Cost{
		ExtendBytes: extend,
		BytesPerCOT: float64(extend) / float64(n),
		Rounds:      1,
		BaseOTs:     128, // Chou-Orlandi setup (skipped by DealPair)
	}
}

func (b softSpokenBackend) NewSender(conn transport.Conn, delta block.Block, p Params, o Options) (Sender, error) {
	return sender(softspoken.NewSender(conn, delta, b.Batch(p), b.options(o)))
}

func (b softSpokenBackend) NewReceiver(conn transport.Conn, p Params, o Options) (Receiver, error) {
	return receiver(softspoken.NewReceiver(conn, b.Batch(p), b.options(o)))
}

func (b softSpokenBackend) DealPair(connS, connR transport.Conn, delta block.Block, p Params, o Options) (Sender, Receiver, error) {
	return pair(softspoken.DealPair(connS, connR, delta, b.Batch(p), b.options(o)))
}
