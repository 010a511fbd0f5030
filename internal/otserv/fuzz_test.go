package otserv

import (
	"encoding/json"
	"fmt"
	"testing"

	"ironman/internal/block"
	"ironman/internal/ferret"
	"ironman/internal/otserv/wire"
)

// fuzzFrames is the frame set wire.TestFrameGolden hashes, rebuilt
// here because a test helper cannot cross packages, plus two real
// HELLO requests (the golden body, which names a set the fuzz server
// does not serve, and one that opens a session on its default set) and
// an ATTACH in the retired by-id form, which names no routing token.
func fuzzFrames(tb testing.TB) [][]byte {
	tb.Helper()
	golden, err := wire.HelloBody(wire.HelloReq{
		Params: "2^20", Backend: "ferret",
		Depth: 2, Workers: 3, Tenant: "acme", LeaseMS: 1500, SessionToken: "aabbcc",
	})
	if err != nil {
		tb.Fatal(err)
	}
	plain, err := wire.HelloBody(wire.HelloReq{})
	if err != nil {
		tb.Fatal(err)
	}
	helloResp, err := json.Marshal(wire.HelloResp{
		Session: wire.SessionID(2, 7), Shard: 2, Params: "2^20", Backend: "ferret",
		Batch: 1 << 20, DeltaLo: 0x0123456789abcdef, DeltaHi: 0xfedcba9876543210,
		SessionToken: "aabbcc", LeaseMS: 1500, SenderToken: "s-tok", ReceiverToken: "r-tok",
	})
	if err != nil {
		tb.Fatal(err)
	}
	frames := [][]byte{
		golden,
		wire.DrawReq(wire.OpDrawS, wire.SessionID(2, 7), 4096),
		wire.DrawReq(wire.OpDrawR, wire.SessionID(2, 7), 4096),
		wire.SessionReq(wire.OpStats, wire.SessionID(2, 7)),
		wire.SessionReq(wire.OpClose, wire.SessionID(2, 7)),
		wire.DrawRResp([]bool{true, false, true, true, false, false, true, false, true},
			[]block.Block{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}, {Lo: 5, Hi: 6}, {Lo: 7, Hi: 8}, {Lo: 9, Hi: 10},
				{Lo: 11, Hi: 12}, {Lo: 13, Hi: 14}, {Lo: 15, Hi: 16}, {Lo: 17, Hi: 18}}),
		wire.OKResponse(helloResp),
	}
	for _, sentinel := range []error{
		wire.ErrVersionMismatch, wire.ErrBackendUnsupported, wire.ErrQuotaExceeded,
		wire.ErrLeaseExpired, wire.ErrPoolDry, wire.ErrDraining,
	} {
		frames = append(frames, wire.ErrResponse(sentinel))
	}
	return append(frames,
		append([]byte{wire.OpHello}, golden...),
		append([]byte{wire.OpHello}, plain...),
		append([]byte{wire.OpAttach}, `{"session":2199023255559,"token":"s-tok"}`...))
}

// FuzzDispatch feeds arbitrary request frames to a server that serves
// only a tiny parameter set. Every frame must get exactly one response
// whose status byte wire defines; sessions a HELLO opened are closed
// before the next input, as a CLOSE would.
func FuzzDispatch(f *testing.F) {
	for _, frame := range fuzzFrames(f) {
		f.Add(frame)
	}
	srv := NewServer(Config{
		Resolve: func(name string) (ferret.Params, error) {
			if name != "tiny" {
				return ferret.Params{}, fmt.Errorf("fuzz resolve: unknown set %q", name)
			}
			return ferret.TestParams(600, 32, 128, 8), nil
		},
		DefaultParams: "tiny",
		MaxSessions:   4,
	})
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, frame []byte) {
		owned := make(map[uint64]*attachment)
		resp := srv.dispatch(frame, owned)
		for id, at := range owned {
			for i := 0; i < at.count; i++ {
				srv.sessions.Detach(id, false)
			}
		}
		if len(resp) == 0 {
			t.Fatalf("frame %x: empty response", frame)
		}
		if resp[0] > wire.StatusErrDraining {
			t.Fatalf("frame %x: status byte %d is not a wire status", frame, resp[0])
		}
	})
}
