package gmw

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
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

// appendShare appends a packed share's length and limbs to an output
// digest.
func appendShare(h []byte, s PackedShare) []byte {
	h = binary.LittleEndian.AppendUint64(h, uint64(s.n))
	for _, l := range s.limbs {
		h = binary.LittleEndian.AppendUint64(h, l)
	}
	return h
}

// TestTranscriptGolden pins one seeded GMW session — the role
// handshake, a three-pair AndPackedMany layer, a width-8
// GreaterThanVec over 100 pairs and a RevealVec of both operands'
// planes — by the SHA-256 of both directions' frames and of every
// share and opened value each party holds. Both parties draw from
// dealer pools over one fixed stream and take every AND mask from the
// pools' pads, so the whole session is a pure function of that stream.
//
// The AND layers used to ship chosen bit OTs (s, s ⊕ a) under a
// per-party mask PRG; they now ship one correlated-OT ciphertext bit
// per OT. Before:
//
//	transcript 60a95c30a229e57cc09a49205ebef168b22e0b0b3c3cd043ee4c1e939fe17452
//	outputs    e119fa53b20591b07588e1244b018f4a202bca68e6068de7e9264e7306d7deb1
func TestTranscriptGolden(t *testing.T) {
	const (
		transcriptWant = "7cac9ec8582d430274ea96d528ff2f9ee54df281a18d84beaf3ed8b11cefc776"
		outputsWant    = "a41ebaa50a6b8fad2ad5e157c84bb2feb212d0386feacca675abe421bd7b30c7"
		n, width       = 100, 8
		budget         = 4096
	)
	s := aesprg.NewStream(block.New(0x676d77, 0x676f6c64))
	sAB, rAB, err := cot.PoolsFromStream(s, s.Block(), budget)
	if err != nil {
		t.Fatal(err)
	}
	sBA, rBA, err := cot.PoolsFromStream(s, s.Block(), budget)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]uint64, n)
	ys := make([]uint64, n)
	for i := range xs {
		xs[i] = s.Uint64() & (1<<width - 1)
		ys[i] = s.Uint64() & (1<<width - 1)
	}
	bits := func(k int) []bool {
		b := make([]bool, k)
		s.Bits(b)
		return b
	}
	lens := []int{70, 130, 5}
	andIn := make([][2][]bool, len(lens))
	for i, k := range lens {
		andIn[i] = [2][]bool{bits(k), bits(k)}
	}

	connA, connB := transport.Pipe()
	defer connA.Close()
	defer connB.Close()
	var logA, logB bytes.Buffer
	// session runs one party's half and returns its output digest
	// input (the AND-layer shares, the comparator share and both
	// opened vectors) and its comparator share.
	session := func(conn transport.Conn, out *cot.SenderPool, in *cot.ReceiverPool, first bool) ([]byte, PackedShare, error) {
		p, err := NewParty(conn, out, in, first)
		if err != nil {
			return nil, PackedShare{}, err
		}
		pairs := make([][2]PackedShare, len(andIn))
		for i, pr := range andIn {
			pairs[i] = [2]PackedShare{p.NewPrivatePacked(pr[0], first), p.NewPrivatePacked(pr[1], !first)}
		}
		ands, err := p.AndPackedMany(pairs)
		if err != nil {
			return nil, PackedShare{}, err
		}
		x := p.NewPrivateVec(xs, width, first)
		y := p.NewPrivateVec(ys, width, !first)
		gt, err := p.GreaterThanVec(x, y)
		if err != nil {
			return nil, PackedShare{}, err
		}
		opened, err := p.RevealVec(append(x, y...))
		if err != nil {
			return nil, PackedShare{}, err
		}
		var h []byte
		for _, a := range ands {
			h = appendShare(h, a)
		}
		h = appendShare(h, gt)
		for _, v := range opened {
			h = binary.LittleEndian.AppendUint64(h, v)
		}
		// The 2w planes open as one vector: y in the high w bits.
		for i, v := range opened {
			if want := xs[i] | ys[i]<<width; v != want {
				t.Errorf("opened value %d = %#x, want %#x", i, v, want)
			}
		}
		return h, gt, nil
	}
	var outA, outB []byte
	var gtA, gtB PackedShare
	run2(t, func() (err error) {
		outA, gtA, err = session(tap{connA, &logA}, sAB, rBA, true)
		return err
	}, func() (err error) {
		outB, gtB, err = session(tap{connB, &logB}, sBA, rAB, false)
		return err
	})
	for i := range xs {
		if got := gtA.Bit(i) != gtB.Bit(i); got != (xs[i] > ys[i]) {
			t.Errorf("GreaterThanVec element %d = %v for %d > %d", i, got, xs[i], ys[i])
		}
	}

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
