package arith

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/gmw"
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

// seededParty builds a Party whose triple shares come from seed (its
// Gilboa and Boolean masks come from the pools' pads), so its
// transcript is a pure function of (seed, pools, inputs).
func seededParty(conn transport.Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool, seed block.Block) (*Party, error) {
	g, err := gmw.NewParty(conn, out, in, first)
	if err != nil {
		return nil, err
	}
	return &Party{
		conn:  conn,
		hash:  aesprg.NewHash(),
		prg:   aesprg.NewLocal(seed, block.New(0, 1)),
		Out:   out,
		In:    in,
		Bool:  g,
		first: first,
	}, nil
}

// TestTranscriptGolden pins one seeded arithmetic session — a 2×3·3×2
// Beaver matrix triple, the MatMul it serves, A2B of the product at the
// full 64-bit width, B2A back and a Reveal — by the SHA-256 of both
// directions' frames and of every share and opened value each party
// holds.
//
// Gilboa products, B2A and the AND layers used to ship chosen OTs
// (s, s + x) under PRG masks; they now ship one correlated-OT
// ciphertext per OT, with s taken from the sender's pad. Before:
//
//	transcript 2572160f318ed8596ed1765c8567ed6022808315926f9e0d4b885e636d80a140
//	outputs    3ddf5f2ac2d7fe0ba7dfccb963a2a045c5ea712317fd9906364f6bed86a0fcc9
func TestTranscriptGolden(t *testing.T) {
	const (
		transcriptWant = "17983f8476b463b2b8b0b888cff0ba52f2ac6f228c236b336c7371591aad9e8d"
		outputsWant    = "afd695dfa126b47b0be2816cbb277eea8852a49ada74c1ea24a1795541cee2fb"
		m, k, n        = 2, 3, 2
		budget         = 1 << 13
	)
	s := aesprg.NewStream(block.New(0x6172697468, 0x676f6c64))
	sAB, rAB, err := cot.PoolsFromStream(s, s.Block(), budget)
	if err != nil {
		t.Fatal(err)
	}
	sBA, rBA, err := cot.PoolsFromStream(s, s.Block(), budget)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]uint64, m*k)
	ys := make([]uint64, k*n)
	for i := range xs {
		xs[i] = s.Uint64()
	}
	for i := range ys {
		ys[i] = s.Uint64()
	}
	want := matMulPlain(xs, ys, m, k, n)

	connA, connB := transport.Pipe()
	defer connA.Close()
	defer connB.Close()
	var logA, logB bytes.Buffer
	// session runs one party's half and returns its output digest
	// input: the triple, the product share, the Boolean planes, the
	// re-shared product and the opened result.
	session := func(conn transport.Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool, seed block.Block) ([]byte, error) {
		p, err := seededParty(conn, out, in, first, seed)
		if err != nil {
			return nil, err
		}
		tr, err := p.NewMatTriple(m, k, n)
		if err != nil {
			return nil, err
		}
		z, err := p.MatMul(p.NewPrivate(xs, first), p.NewPrivate(ys, !first), tr)
		if err != nil {
			return nil, err
		}
		planes, err := p.A2B(z, 64)
		if err != nil {
			return nil, err
		}
		back, err := p.B2A(planes)
		if err != nil {
			return nil, err
		}
		opened, err := p.Reveal(back)
		if err != nil {
			return nil, err
		}
		for i, v := range opened {
			if v != want[i] {
				t.Errorf("opened product %d = %#x, want %#x", i, v, want[i])
			}
		}
		var h []byte
		for _, vec := range [][]uint64{tr.A, tr.B, tr.C, z, gmw.UnpackVec(planes), back, opened} {
			for _, v := range vec {
				h = binary.LittleEndian.AppendUint64(h, v)
			}
		}
		return h, nil
	}
	var outA, outB []byte
	run2(t, func() (err error) {
		outA, err = session(tap{connA, &logA}, sAB, rBA, true, block.New(0xa, 1))
		return err
	}, func() (err error) {
		outB, err = session(tap{connB, &logB}, sBA, rAB, false, block.New(0xb, 2))
		return err
	})

	tr := sha256.New()
	tr.Write(logA.Bytes())
	tr.Write(logB.Bytes())
	out := sha256.New()
	out.Write(outA)
	out.Write(outB)
	if got := hex.EncodeToString(tr.Sum(nil)); got != transcriptWant {
		t.Errorf("transcript sha256 = %s, want %s", got, transcriptWant)
	}
	if got := hex.EncodeToString(out.Sum(nil)); got != outputsWant {
		t.Errorf("outputs sha256 = %s, want %s", got, outputsWant)
	}
}
