package extension

import (
	"math/bits"

	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/ferret"
	"ironman/internal/ggm"
	"ironman/internal/prg"
	"ironman/internal/transport"
)

// ferretBackend adapts internal/ferret (PCG-style LPN extension, the
// paper's design point) to the Backend contract.
type ferretBackend struct{}

func (ferretBackend) Name() string { return "ferret" }

// Batch: each Extend yields N outputs and re-reserves the tail for the
// next iteration.
func (ferretBackend) Batch(p Params) int { return p.Usable() }

func (ferretBackend) options(o Options) ferret.Options {
	fo := ferret.Options{Workers: o.Workers, Seed: o.Seed, Trace: o.Trace}
	if o.BinaryAES {
		fo.PRG = prg.New(prg.AES, 2)
	}
	return fo
}

// Cost models one Extend's SPCOT puncturing traffic exactly: per tree,
// every binary GGM level is one direct chosen OT; every m-ary level is
// an all-but-one transfer (log2(m) gadget chosen OTs plus m masked
// leaf blocks); plus the tree's node-recovery block. The LPN encode is
// local. Verified byte-for-byte against the measured transcript by the
// extend bench.
func (b ferretBackend) Cost(p Params, o Options) Cost {
	arity := 4
	if o.BinaryAES {
		arity = 2
	}
	// Every gadget chosen OT is one 128-bit instance: spcot's sequential
	// per-tree flights always invoke cot.SendChosen that way.
	chosenOTBytes := int64(cot.ChosenBytes(1, 128))
	perTree := int64(block.Size) // node-recovery block
	flights := 0
	for _, a := range ggm.LevelArities(p.L, arity) {
		if a == 2 {
			perTree += chosenOTBytes
			flights += 2
		} else {
			lg := bits.TrailingZeros(uint(a))
			perTree += int64(lg)*chosenOTBytes + int64(a)*block.Size
			flights += 2 * lg
		}
	}
	extend := int64(p.T) * perTree
	return Cost{
		ExtendBytes: extend,
		BytesPerCOT: float64(extend) / float64(b.Batch(p)),
		Rounds:      p.T * flights,
		BaseOTs:     128, // IKNP init (skipped by DealPair)
	}
}

type ferretSender struct{ f *ferret.Sender }

func (s ferretSender) Extend() ([]block.Block, error) { return s.f.Extend() }
func (s ferretSender) Delta() block.Block             { return s.f.Delta }

type ferretReceiver struct{ f *ferret.Receiver }

func (r ferretReceiver) Extend() ([]bool, []block.Block, error) {
	out, err := r.f.Extend()
	if err != nil {
		return nil, nil, err
	}
	return out.Bits, out.Blocks, nil
}

func (b ferretBackend) NewSender(conn transport.Conn, delta block.Block, p Params, o Options) (Sender, error) {
	f, err := ferret.NewSender(conn, delta, p, b.options(o))
	if err != nil {
		return nil, err
	}
	return ferretSender{f}, nil
}

func (b ferretBackend) NewReceiver(conn transport.Conn, p Params, o Options) (Receiver, error) {
	f, err := ferret.NewReceiver(conn, p, b.options(o))
	if err != nil {
		return nil, err
	}
	return ferretReceiver{f}, nil
}

func (b ferretBackend) DealPair(connS, connR transport.Conn, delta block.Block, p Params, o Options) (Sender, Receiver, error) {
	fs, fr, err := ferret.DealPools(connS, connR, delta, p, b.options(o))
	if err != nil {
		return nil, nil, err
	}
	return ferretSender{fs}, ferretReceiver{fr}, nil
}
