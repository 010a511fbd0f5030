package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"ironman/internal/block"
)

func TestParseHelloRoundTrip(t *testing.T) {
	req := HelloReq{
		V: ProtoVersion, Params: "2^20", Backend: "ferret",
		Tenant: "acme", LeaseMS: 1500, SessionToken: "aabbcc",
		Depth: 3, Workers: 2,
	}
	body, err := HelloBody(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip: got %+v, want %+v", got, req)
	}
}

// TestParseHelloRejectsLegacyV1: the bare-JSON v1 framing's one-release
// compatibility window is over — it must now fail with the typed
// version sentinel, not open a session.
func TestParseHelloRejectsLegacyV1(t *testing.T) {
	legacy, err := json.Marshal(HelloReq{V: 1, Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(legacy); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("legacy v1 HELLO: err = %v, want ErrVersionMismatch", err)
	}
}

func TestParseHelloVersionRejections(t *testing.T) {
	body, err := json.Marshal(HelloReq{V: 3, Params: "small"})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"future version byte":   append([]byte{3}, body...),
		"frame/body mismatch":   append([]byte{ProtoVersion}, body...),
		"empty body":            {},
		"unversioned zero byte": {0},
	} {
		if _, err := ParseHello(frame); !errors.Is(err, ErrVersionMismatch) {
			t.Errorf("%s: err = %v, want ErrVersionMismatch", name, err)
		}
	}
}

// TestStatusErrorMapping: every typed sentinel survives the
// status-byte round trip (server StatusOf -> client FromStatus) as an
// errors.Is match, and unknown errors stay free-form.
func TestStatusErrorMapping(t *testing.T) {
	for _, sentinel := range []error{
		ErrVersionMismatch, ErrBackendUnsupported, ErrQuotaExceeded,
		ErrLeaseExpired, ErrPoolDry, ErrDraining,
	} {
		status := StatusOf(sentinel)
		if status == StatusErr || status == StatusOK {
			t.Fatalf("%v mapped to untyped status %d", sentinel, status)
		}
		back := FromStatus(status, "details")
		if !errors.Is(back, sentinel) {
			t.Fatalf("FromStatus(%d) = %v, want wrap of %v", status, back, sentinel)
		}
	}
	if got := StatusOf(errors.New("whatever")); got != StatusErr {
		t.Fatalf("untyped error mapped to status %d", got)
	}
	if err := FromStatus(StatusErr, "boom"); err == nil {
		t.Fatal("StatusErr must still be an error")
	}
}

func TestErrResponseStatusByte(t *testing.T) {
	resp := ErrResponse(ErrQuotaExceeded)
	if resp[0] != StatusErrQuota {
		t.Fatalf("status byte = %d, want %d", resp[0], StatusErrQuota)
	}
	resp = OKResponse([]byte("x"))
	if resp[0] != StatusOK || string(resp[1:]) != "x" {
		t.Fatalf("OK response mis-framed: %v", resp)
	}
}

func TestShardScopedIDs(t *testing.T) {
	for _, tc := range []struct{ shard, seq uint64 }{
		{0, 1}, {1, 1}, {3, 1 << 20}, {MaxShardID, 42},
	} {
		id := SessionID(tc.shard, tc.seq)
		if ShardOf(id) != tc.shard {
			t.Fatalf("ShardOf(SessionID(%d, %d)) = %d", tc.shard, tc.seq, ShardOf(id))
		}
		if id&(1<<ShardShift-1) != tc.seq {
			t.Fatalf("seq bits of SessionID(%d, %d) = %d", tc.shard, tc.seq, id&(1<<ShardShift-1))
		}
	}
}

func TestDrawFraming(t *testing.T) {
	req := DrawReq(OpDrawS, SessionID(2, 7), 4096)
	if req[0] != OpDrawS {
		t.Fatalf("op byte = %d", req[0])
	}
	id, n, err := ParseSessionN(req[1:])
	if err != nil || id != SessionID(2, 7) || n != 4096 {
		t.Fatalf("ParseSessionN = (%d, %d, %v)", id, n, err)
	}
	if _, _, err := ParseSessionN(req); err == nil {
		t.Fatal("13-byte body must fail")
	}
	sreq := SessionReq(OpClose, 9)
	id, err = ParseSession(sreq[1:])
	if err != nil || id != 9 {
		t.Fatalf("ParseSession = (%d, %v)", id, err)
	}
}

// frameGolden is sha256 over the length-prefixed frames TestFrameGolden
// builds. A change to it is a wire change: bump ProtoVersion or explain
// why old peers still interoperate.
const frameGolden = "54ce37a92282dc23522a70226d7b3929dae2a09dd5096c8821253cd4e3044bbb"

// goldenFrames builds every frame a session lifetime carries (HELLO
// body -> DRAW_S/DRAW_R -> STATS/CLOSE, and the OK and typed error
// responses) over fixed inputs.
func goldenFrames(tb testing.TB) [][]byte {
	tb.Helper()
	hello, err := HelloBody(HelloReq{
		V: ProtoVersion, Params: "2^20", Backend: "ferret", BinaryAES: true,
		Depth: 2, Workers: 3, Tenant: "acme", LeaseMS: 1500, SessionToken: "aabbcc",
	})
	if err != nil {
		tb.Fatal(err)
	}
	helloResp, err := json.Marshal(HelloResp{
		Session: SessionID(2, 7), Shard: 2, Params: "2^20", Backend: "ferret",
		Batch: 1 << 20, DeltaLo: 0x0123456789abcdef, DeltaHi: 0xfedcba9876543210,
		SessionToken: "aabbcc", LeaseMS: 1500, SenderToken: "s-tok", ReceiverToken: "r-tok",
	})
	if err != nil {
		tb.Fatal(err)
	}
	frames := [][]byte{
		hello,
		DrawReq(OpDrawS, SessionID(2, 7), 4096),
		DrawReq(OpDrawR, SessionID(2, 7), 4096),
		SessionReq(OpStats, SessionID(2, 7)),
		SessionReq(OpClose, SessionID(2, 7)),
		DrawRResp([]bool{true, false, true, true, false, false, true, false, true},
			[]block.Block{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}, {Lo: 5, Hi: 6}, {Lo: 7, Hi: 8}, {Lo: 9, Hi: 10},
				{Lo: 11, Hi: 12}, {Lo: 13, Hi: 14}, {Lo: 15, Hi: 16}, {Lo: 17, Hi: 18}}),
		OKResponse(helloResp),
	}
	for _, sentinel := range statusErrs {
		if sentinel != nil {
			frames = append(frames, ErrResponse(sentinel))
		}
	}
	return frames
}

// TestFrameGolden pins the bytes of the golden frames, so a refactor
// that claims no wire change can prove it.
func TestFrameGolden(t *testing.T) {
	frames := goldenFrames(t)
	h := sha256.New()
	for _, f := range frames {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(f))))
		h.Write(f)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frameGolden {
		t.Fatalf("sha256 over %d frames = %s, want %s", len(frames), got, frameGolden)
	}
}

// FuzzParseHello feeds arbitrary HELLO bodies to ParseHello, seeded
// with the golden frames. It must never panic, and a body it accepts
// must survive the HelloBody -> ParseHello round trip unchanged.
func FuzzParseHello(f *testing.F) {
	for _, frame := range goldenFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseHello(body)
		if err != nil {
			return
		}
		again, err := HelloBody(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not re-encode: %v", req, err)
		}
		back, err := ParseHello(again)
		if err != nil {
			t.Fatalf("re-encoded request %+v rejected: %v", req, err)
		}
		if back != req {
			t.Fatalf("round trip: got %+v, want %+v", back, req)
		}
	})
}

func TestDrawRRespRoundTrip(t *testing.T) {
	bits := []bool{true, false, true, true, false}
	blocks := []block.Block{{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}, {Lo: 5, Hi: 6}, {Lo: 7, Hi: 8}, {Lo: 9, Hi: 10}}
	body := DrawRResp(bits, blocks)
	gb, gz, err := ParseDrawRResp(body, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if gb[i] != bits[i] || gz[i] != blocks[i] {
			t.Fatalf("index %d: (%v, %v) != (%v, %v)", i, gb[i], gz[i], bits[i], blocks[i])
		}
	}
	if _, _, err := ParseDrawRResp(body[:len(body)-1], len(bits)); err == nil {
		t.Fatal("truncated body must fail")
	}
}

// TestNewToken: the one token minter (session and capability tokens
// on shards, routing tokens on the router) gives 128 fresh bits in hex.
func TestNewToken(t *testing.T) {
	a, b := NewToken(), NewToken()
	for _, tok := range []string{a, b} {
		if raw, err := hex.DecodeString(tok); err != nil || len(raw) != 16 {
			t.Fatalf("token %q is not 16 hex-encoded bytes (%v)", tok, err)
		}
	}
	if a == b {
		t.Fatal("two tokens are equal")
	}
}
