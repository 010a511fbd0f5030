package mpcot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/prg"
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

// goldenRun is one seeded MPCOT over a tapped pipe: the transcript
// digest, the output digest sha256(w ‖ v), the bytes the sender's
// endpoint moved, and both endpoints' transport counters.
type goldenRun struct {
	transcript, outputs string
	bytes               int64
	sender, receiver    transport.Stats
}

func runGolden(t *testing.T, p prg.PRG) goldenRun {
	t.Helper()
	// Bucket 6 is truncated at N and bucket 7 lies wholly beyond it; at
	// 32 leaves a 4-ary PRG builds mixed-radix 4,4,2 trees.
	cfg := Config{N: 200, Leaves: 32, T: 8}
	s := aesprg.NewStream(block.New(0x6d70636f74, 0x676f6c64))
	seeds := make([]block.Block, cfg.T)
	s.Blocks(seeds)
	alphas := cfg.AlphasFrom(s)
	sp, rp, err := cot.PoolsFromStream(s, s.Block(), cfg.COTBudget())
	if err != nil {
		t.Fatal(err)
	}
	h := aesprg.NewHash()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	var sl, rl bytes.Buffer
	type sres struct {
		w   []block.Block
		err error
	}
	ch := make(chan sres, 1)
	go func() {
		w, err := SendSeeded(tap{a, &sl}, sp, h, p, cfg, seeds, 3)
		ch <- sres{w, err}
	}()
	v, err := ReceiveWorkers(tap{b, &rl}, rp, h, p, cfg, alphas, 2)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	var inRange []int
	for _, x := range alphas {
		if x < cfg.N {
			inRange = append(inRange, x)
		}
	}
	checkMulti(t, sp.Delta, sr.w, v, inRange)
	tr := sha256.New()
	tr.Write(sl.Bytes())
	tr.Write(rl.Bytes())
	out := sha256.New()
	out.Write(block.ToBytes(sr.w))
	out.Write(block.ToBytes(v))
	return goldenRun{
		transcript: hex.EncodeToString(tr.Sum(nil)),
		outputs:    hex.EncodeToString(out.Sum(nil)),
		bytes:      a.Stats().TotalBytes(),
		sender:     a.Stats(),
		receiver:   b.Stats(),
	}
}

// TestTranscriptGolden pins one seeded MPCOT's wire format by the
// SHA-256 of both directions' frames and its byte count, and its
// outputs by sha256(w ‖ v), for both ends of the Figure 6 design space.
// The whole MPCOT is one frame each way.
//
// The transcripts were re-recorded when the per-tree flights (one
// 1-byte correction frame per COT, one sender frame per level) became
// one exchange. The outputs did not change. The new transcript is the
// old one reframed: the reply is the old sender frames concatenated,
// and the correction frame packs the old corrections' bits in order
// (both checked against the old code). Before, as transcript, bytes:
//
//	chacha8x4  05f976eae7c50605c8546b59ef64abcdc15f2b4c6191dd9d459d6d532573fdd2 2472
//	aesx2      50d43199ab66bdba4334b64c8c44fe9b942e5bb7bc2bd05ec8b31dd941f74e83 1448
func TestTranscriptGolden(t *testing.T) {
	for _, g := range []struct {
		name                string
		prg                 prg.PRG
		transcript, outputs string
		bytes               int64
	}{
		{"chacha8x4", prg.New(prg.ChaCha8, 4),
			"4b747c78e0ef6275aed4d4a365f4b95479622f10018544ee8e1209f6927662e3",
			"b172fd2a8e4b2ceff7888ac956fc0cbb0204f3be5322395be2eeef5af86f26f9", 2437},
		{"aesx2", prg.New(prg.AES, 2),
			"d1e5390846817a268c1e68a92cfb096e127527e0cd03204b46bb4d97d56dc571",
			"4585c4daaf56b60ba7df443d3891454e388054b73ac0b0140ecbed787981f995", 1413},
	} {
		t.Run(g.name, func(t *testing.T) {
			got := runGolden(t, g.prg)
			if got.transcript != g.transcript {
				t.Errorf("transcript sha256 = %s, want %s", got.transcript, g.transcript)
			}
			if got.outputs != g.outputs {
				t.Errorf("sha256(w ‖ v) = %s, want %s", got.outputs, g.outputs)
			}
			if got.bytes != g.bytes {
				t.Errorf("moved %d bytes, want %d", got.bytes, g.bytes)
			}
			for _, side := range []transport.Stats{got.sender, got.receiver} {
				if side.MsgsSent != 1 || side.MsgsReceived != 1 || side.Flights != 1 {
					t.Errorf("endpoint %v: want one frame each way and one flight", side)
				}
			}
		})
	}
}
