package cot_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ironman"
	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/ferret"
	"ironman/internal/transport"
)

// tap logs every frame its endpoint sends, length-prefixed, so a
// transcript digest pins frame boundaries as well as bytes.
type tap struct {
	transport.Conn
	log *bytes.Buffer
}

func (t tap) Send(p []byte) error {
	t.log.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(p))))
	t.log.Write(p)
	return t.Conn.Send(p)
}

// transcript runs send and recv concurrently over a tapped pipe and
// returns sha256(sender frames ‖ receiver frames) and the bytes the
// sender's endpoint moved in both directions.
func transcript(t *testing.T, send func(transport.Conn) error, recv func(transport.Conn) error) (string, int64) {
	t.Helper()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var sl, rl bytes.Buffer
	errCh := make(chan error, 1)
	go func() { errCh <- send(tap{a, &sl}) }()
	if err := recv(tap{b, &rl}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(sl.Bytes())
	h.Write(rl.Bytes())
	return hex.EncodeToString(h.Sum(nil)), a.Stats().TotalBytes()
}

// seededPools deals n correlations and a message stream from one
// fixed seed.
func seededPools(t *testing.T, n int) (*aesprg.Stream, *cot.SenderPool, *cot.ReceiverPool) {
	t.Helper()
	s := aesprg.NewStream(block.New(0xc0de, uint64(n)))
	sp, rp, err := cot.PoolsFromStream(s, s.Block(), n)
	if err != nil {
		t.Fatal(err)
	}
	return s, sp, rp
}

func uint64s(s *aesprg.Stream, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = s.Uint64()
	}
	return v
}

func goldenBlocks(t *testing.T, n int) (string, int64) {
	s, sp, rp := seededPools(t, n)
	msgs := make([][2]block.Block, n)
	for i := range msgs {
		msgs[i] = [2]block.Block{s.Block(), s.Block()}
	}
	choices := make([]bool, n)
	s.Bits(choices)
	h := aesprg.NewHash()
	return transcript(t,
		func(c transport.Conn) error { return cot.SendChosen(c, sp, h, msgs) },
		func(c transport.Conn) error { _, err := cot.ReceiveChosen(c, rp, h, choices); return err })
}

func goldenWords(t *testing.T, n int) (string, int64) {
	s, sp, rp := seededPools(t, n)
	m0, m1 := uint64s(s, n), uint64s(s, n)
	choices := uint64s(s, transport.PackedLimbs(n))
	widths := make([]int, n)
	for i := range widths {
		widths[i] = i % 65
	}
	h := aesprg.NewHash()
	return transcript(t,
		func(c transport.Conn) error { return cot.SendChosenWords(c, sp, h, m0, m1, widths) },
		func(c transport.Conn) error {
			_, err := cot.ReceiveChosenWords(c, rp, h, choices, widths)
			return err
		})
}

func goldenBits(t *testing.T, n int) (string, int64) {
	s, sp, rp := seededPools(t, n)
	limbs := transport.PackedLimbs(n)
	// Limbs carry garbage past bit n: only the low n bits may reach the
	// wire.
	m0, m1, choices := uint64s(s, limbs), uint64s(s, limbs), uint64s(s, limbs)
	h := aesprg.NewHash()
	return transcript(t,
		func(c transport.Conn) error { return cot.SendChosenBits(c, sp, h, m0, m1, n) },
		func(c transport.Conn) error { _, err := cot.ReceiveChosenBits(c, rp, h, choices, n); return err })
}

func goldenCorrelatedWords(t *testing.T, n int) (string, int64) {
	s, sp, rp := seededPools(t, n)
	x := uint64s(s, n)
	choices := uint64s(s, transport.PackedLimbs(n))
	widths := make([]int, n)
	for i := range widths {
		widths[i] = i % 65
	}
	h := aesprg.NewHash()
	return transcript(t,
		func(c transport.Conn) error { _, err := cot.SendCorrelatedWords(c, sp, h, x, widths); return err },
		func(c transport.Conn) error {
			_, err := cot.ReceiveCorrelatedWords(c, rp, h, choices, widths)
			return err
		})
}

func goldenCorrelatedBits(t *testing.T, n int) (string, int64) {
	s, sp, rp := seededPools(t, n)
	limbs := transport.PackedLimbs(n)
	// Limbs carry garbage past bit n: only the low n bits may reach the
	// wire.
	x, choices := uint64s(s, limbs), uint64s(s, limbs)
	h := aesprg.NewHash()
	return transcript(t,
		func(c transport.Conn) error { _, err := cot.SendCorrelatedBits(c, sp, h, x, n); return err },
		func(c transport.Conn) error { _, err := cot.ReceiveCorrelatedBits(c, rp, h, choices, n); return err })
}

// goldenIronman runs two back-to-back 16-instance chosen-OT batches
// between the endpoints of a seeded dealt pair, over a dedicated conn.
func goldenIronman(t *testing.T) (string, int64) {
	connS, connR := ironman.Pipe()
	defer connS.Close()
	defer connR.Close()
	opts := ironman.Options{Seed: block.New(0x676f6c64656e, 1)} // "golden"
	delta := block.New(0x0123456789abcdef, 0xfedcba9876543210)
	snd, rcv, err := ironman.NewDealtPair(connS, connR, delta, ferret.TestParams(600, 32, 128, 8), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := aesprg.NewStream(block.New(0xc0de, 0x1e0))
	const n, batches = 16, 2
	msgs := make([][2]block.Block, n*batches)
	for i := range msgs {
		msgs[i] = [2]block.Block{s.Block(), s.Block()}
	}
	choices := make([]bool, n*batches)
	s.Bits(choices)
	return transcript(t,
		func(c transport.Conn) error {
			for k := 0; k < batches; k++ {
				if err := snd.SendChosen(c, msgs[k*n:(k+1)*n]); err != nil {
					return err
				}
			}
			return nil
		},
		func(c transport.Conn) error {
			for k := 0; k < batches; k++ {
				got, err := rcv.ReceiveChosen(c, choices[k*n:(k+1)*n])
				if err != nil {
					return err
				}
				for i, m := range got {
					want := msgs[k*n+i][0]
					if choices[k*n+i] {
						want = msgs[k*n+i][1]
					}
					if m != want {
						t.Errorf("batch %d OT %d: wrong message", k, i)
					}
				}
			}
			return nil
		})
}

// TestChosenGolden pins the chosen-OT wire format of every payload
// width, the correlated mode's word and bit frames, and the root
// package's endpoint chosen OT, by the SHA-256 of seeded transcripts
// and their byte counts.
func TestChosenGolden(t *testing.T) {
	for _, g := range []struct {
		name  string
		run   func(*testing.T) (string, int64)
		hash  string
		bytes int64
	}{
		{"blocks/n=33", func(t *testing.T) (string, int64) { return goldenBlocks(t, 33) }, "a691f309a645b9d96bb0676f2b40bbdeef89b08c6869a76c21dfa1f45d6cc352", 1061},
		{"words/n=130", func(t *testing.T) (string, int64) { return goldenWords(t, 130) }, "077ecb006827c2fc1904bd95706e81c68fae7294591a3a2efb5aed1deaa03e41", 1057},
		// The bit payload used to ship planar ct0 ‖ ct1 halves of
		// ⌈n/8⌉ bytes each; it now shares the interleaved frame of every
		// other width (never larger, equal when 8 | n). Before:
		//   n=1    71cbc502b7a4c919ca05e939bba0914739effb90b98ecc8283795e1d490b87bf 3
		//   n=65   74fba84d0c7831f5b714efd38884780c5455599ceea5a569379dcfa566bb57f1 27
		//   n=4096 840937b7916e27d03323f177347917324a572b2a8da6c4e5ff938195bb1ed2b7 1536
		{"bits/n=1", func(t *testing.T) (string, int64) { return goldenBits(t, 1) }, "89269259d349d59d0adac25b40103cc30ec9a7ead7ea8862e658a040917be3eb", 2},
		{"bits/n=65", func(t *testing.T) (string, int64) { return goldenBits(t, 65) }, "d7d29f8e9376f82f25ae37f135bae1cf3d8db056586d91d4aa6fa4f53d085fa4", 26},
		{"bits/n=4096", func(t *testing.T) (string, int64) { return goldenBits(t, 4096) }, "f173787e3ee083658642238d2a7abe8307a3e71c50fe484272c644e5d72fac16", 1536},
		{"correlated-words/n=130", func(t *testing.T) (string, int64) { return goldenCorrelatedWords(t, 130) }, "b21bfe403b5d9ac335d7dafcd5786da128f57fa9e121d9b6ff3dde46a98c50b7", 537},
		{"correlated-bits/n=1", func(t *testing.T) (string, int64) { return goldenCorrelatedBits(t, 1) }, "62849509e26efb8f89eae2bce8759ff4fe385cb8b642d8befd79dbe504bfd6dc", 2},
		{"correlated-bits/n=65", func(t *testing.T) (string, int64) { return goldenCorrelatedBits(t, 65) }, "e6e8d889d407f35460c2d1697e7d638c72fd6f2f9dabcf6a2d10922a57d2e227", 18},
		{"correlated-bits/n=4096", func(t *testing.T) (string, int64) { return goldenCorrelatedBits(t, 4096) }, "8d27e5c1529b800e43f689492929a09b7ff105fca371df871e7a87d19a0c9938", 1024},
		// The endpoint chosen OT used to hash under a per-endpoint
		// running counter; it now draws one pool per call, whose tweaks
		// restart at 0, so the second batch's ciphertexts changed (the
		// first batch's did not, nor did any frame size). Before:
		//   d4d7ea5224e406390d4a548562a7b3527ef1b6981beb26386aba1404e5075ded 1028
		{"ironman", goldenIronman, "f22975134786759b96b70208180fee592314135e8645a2c6b4a5bcbfb56c245a", 1028},
	} {
		t.Run(g.name, func(t *testing.T) {
			hash, n := g.run(t)
			if hash != g.hash {
				t.Errorf("transcript sha256 = %s, want %s", hash, g.hash)
			}
			if n != g.bytes {
				t.Errorf("moved %d bytes, want %d", n, g.bytes)
			}
		})
	}
}
