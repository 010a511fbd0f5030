// Package prg defines the pseudo-random-generator design space that
// Ironman's SPCOT optimization explores (Figure 6 of the paper):
//
//	(a) 2-ary tree with AES      — 2 AES ops per expansion (baseline)
//	(b) 4-ary tree with AES      — 4 AES ops per expansion
//	(c) 2-ary tree with ChaCha8  — 1 ChaCha op (half the output wasted)
//	(d) 4-ary tree with ChaCha8  — 1 ChaCha op (full 512-bit output used)
//
// A PRG expands one 128-bit parent block into Arity() child blocks, and
// reports how many primitive operations (AES calls or ChaCha core calls)
// the expansion costs, so software, the op-count analysis of Fig 7(a)
// and the hardware pipeline model all agree on one number.
package prg

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ironman/internal/aesprg"
	"ironman/internal/block"
)

// Kind selects the primitive the PRG is built from.
type Kind int

const (
	// AES builds the PRG from fixed-key AES-128 (one op per child).
	AES Kind = iota
	// ChaCha8 builds the PRG from the 8-round ChaCha core
	// (one op per up-to-4 children).
	ChaCha8
)

func (k Kind) String() string {
	switch k {
	case AES:
		return "AES"
	case ChaCha8:
		return "ChaCha8"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PRG is a length-m-tupling pseudorandom generator: one point
// (primitive × arity) of the design space. It is a stateless,
// comparable value, safe for concurrent use; the zero PRG is not a
// valid construction, so callers may use it to mean "unset".
type PRG struct {
	kind  Kind
	arity int
}

// New constructs a PRG of the given kind and arity. AES supports arity
// 2..4 (one AES call per child). ChaCha8 supports arity 2, 4, 8, 16 and
// 32: one 512-bit core output holds 4 blocks, so an m-ary expansion
// costs ceil(m/4) core calls — which is why the reduction rate of m-ary
// expansion saturates around 4x and the paper picks m=4 (§4.1).
func New(kind Kind, arity int) PRG {
	switch kind {
	case AES:
		if arity < 2 || arity > aesprg.MaxArity {
			panic("prg: AES arity must be between 2 and 4")
		}
	case ChaCha8:
		switch arity {
		case 2, 4, 8, 16, 32:
		default:
			panic("prg: ChaCha8 arity must be one of 2,4,8,16,32")
		}
	default:
		panic("prg: unknown kind")
	}
	return PRG{kind: kind, arity: arity}
}

// Arity is the maximum number of children produced per expansion (the
// m in m-ary tree expansion).
func (p PRG) Arity() int { return p.arity }

// OpsFor is the number of primitive core invocations needed to produce
// the first n children, 1 <= n <= Arity(): one AES call per child, one
// ChaCha core call per up-to-4 children.
func (p PRG) OpsFor(n int) int {
	if p.kind == AES {
		return n
	}
	return (n + 3) / 4
}

// Expand writes the first len(children) children of parent into
// children; 1 <= len(children) <= Arity(). Producing fewer children
// than Arity yields a prefix of the full expansion, which is what a
// mixed-radix GGM level (e.g. a final binary level under a 4-ary PRG)
// consumes.
func (p PRG) Expand(parent block.Block, children []block.Block) {
	if len(children) < 1 || len(children) > p.arity {
		panic("prg: children slice has wrong length")
	}
	if p.kind == AES {
		aesprg.Expand(parent, children)
		return
	}
	// ChaCha8 keys the core with the parent seed repeated into the
	// 256-bit key slot (standard 128-bit-security keying) and takes the
	// first len(children)*16 bytes of the core output as the children.
	// Build the 16-word ChaCha state directly: constants, key =
	// seed||seed, nonce 0, counter = core-call index. One core call ==
	// one hardware pipeline pass producing 4 children.
	var in [16]uint32
	in[0], in[1], in[2], in[3] = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574
	lo, hi := parent.Lo, parent.Hi
	in[4], in[5] = uint32(lo), uint32(lo>>32)
	in[6], in[7] = uint32(hi), uint32(hi>>32)
	in[8], in[9], in[10], in[11] = in[4], in[5], in[6], in[7]
	var out [64]byte
	for call := 0; call < p.OpsFor(len(children)); call++ {
		in[12] = uint32(call)
		chachaBlock(&out, &in, 8)
		for i := 0; i < 4 && call*4+i < len(children); i++ {
			children[call*4+i] = block.FromBytes(out[i*16:])
		}
	}
}

func quarter(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d = bits.RotateLeft32(d^a, 16)
	c += d
	b = bits.RotateLeft32(b^c, 12)
	a += b
	d = bits.RotateLeft32(d^a, 8)
	c += d
	b = bits.RotateLeft32(b^c, 7)
	return a, b, c, d
}

// chachaBlock runs the ChaCha permutation (Bernstein) over in for the
// given even number of rounds and writes the 64-byte keystream block
// (permutation output + feed-forward) into out. Ironman uses 8 rounds:
// Aumasson's analysis gives 7-round ChaCha ~2^248 attack cost, so 8
// rounds comfortably clears the 128-bit target (§3.1 of the paper), and
// a fully pipelined ChaCha8 core produces 512 bits per call versus
// AES-128's 128 bits at comparable area (Table 2). The round count is a
// parameter so the function can be checked against the RFC 8439
// ChaCha20 vector.
func chachaBlock(out *[64]byte, in *[16]uint32, rounds int) {
	x0, x1, x2, x3 := in[0], in[1], in[2], in[3]
	x4, x5, x6, x7 := in[4], in[5], in[6], in[7]
	x8, x9, x10, x11 := in[8], in[9], in[10], in[11]
	x12, x13, x14, x15 := in[12], in[13], in[14], in[15]

	for i := 0; i < rounds; i += 2 {
		// Column round.
		x0, x4, x8, x12 = quarter(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarter(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarter(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarter(x3, x7, x11, x15)
		// Diagonal round.
		x0, x5, x10, x15 = quarter(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarter(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarter(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarter(x3, x4, x9, x14)
	}

	binary.LittleEndian.PutUint32(out[0:], x0+in[0])
	binary.LittleEndian.PutUint32(out[4:], x1+in[1])
	binary.LittleEndian.PutUint32(out[8:], x2+in[2])
	binary.LittleEndian.PutUint32(out[12:], x3+in[3])
	binary.LittleEndian.PutUint32(out[16:], x4+in[4])
	binary.LittleEndian.PutUint32(out[20:], x5+in[5])
	binary.LittleEndian.PutUint32(out[24:], x6+in[6])
	binary.LittleEndian.PutUint32(out[28:], x7+in[7])
	binary.LittleEndian.PutUint32(out[32:], x8+in[8])
	binary.LittleEndian.PutUint32(out[36:], x9+in[9])
	binary.LittleEndian.PutUint32(out[40:], x10+in[10])
	binary.LittleEndian.PutUint32(out[44:], x11+in[11])
	binary.LittleEndian.PutUint32(out[48:], x12+in[12])
	binary.LittleEndian.PutUint32(out[52:], x13+in[13])
	binary.LittleEndian.PutUint32(out[56:], x14+in[14])
	binary.LittleEndian.PutUint32(out[60:], x15+in[15])
}
