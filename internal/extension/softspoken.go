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
	return softspoken.Options{FieldBits: o.FieldBits, Workers: o.Workers, Seed: o.Seed, Trace: o.Trace}
}

func fieldBits(o Options) int {
	if o.FieldBits == 0 {
		return softspoken.DefaultFieldBits
	}
	return o.FieldBits
}

// Cost: one receiver→sender message per Extend, sized exactly by
// softspoken.WireBytes (asserted byte-for-byte by the extend bench).
func (b softSpokenBackend) Cost(p Params, o Options) Cost {
	n := b.Batch(p)
	extend := softspoken.WireBytes(n, fieldBits(o))
	return Cost{
		ExtendBytes: extend,
		BytesPerCOT: float64(extend) / float64(n),
		Rounds:      1,
		BaseOTs:     128, // Chou-Orlandi setup (skipped by DealPair)
	}
}

func (b softSpokenBackend) NewSender(conn transport.Conn, delta block.Block, p Params, o Options) (Sender, error) {
	s, err := softspoken.NewSender(conn, delta, b.Batch(p), b.options(o))
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (b softSpokenBackend) NewReceiver(conn transport.Conn, p Params, o Options) (Receiver, error) {
	r, err := softspoken.NewReceiver(conn, b.Batch(p), b.options(o))
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (b softSpokenBackend) DealPair(connS, connR transport.Conn, delta block.Block, p Params, o Options) (Sender, Receiver, error) {
	s, r, err := softspoken.DealPair(connS, connR, delta, b.Batch(p), b.options(o))
	if err != nil {
		return nil, nil, err
	}
	return s, r, nil
}
