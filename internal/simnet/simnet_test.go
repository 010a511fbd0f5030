package simnet

import (
	"math"
	"testing"

	"ironman/internal/transport"
)

func TestLatencyFormula(t *testing.T) {
	// 3 Gbps, 0.15 ms: 375 MB in one flight = 1 s + 0.15 ms.
	got := LAN.Latency(375_000_000, 1)
	if math.Abs(got-1.00015) > 1e-9 {
		t.Fatalf("LAN latency = %f", got)
	}
	// WAN RTT dominates small chatty protocols.
	chatty := WAN.Latency(1000, 100)
	bulk := WAN.Latency(1000_000, 1)
	if chatty < 100*WAN.RTTSeconds {
		t.Fatal("flights must each pay an RTT")
	}
	if chatty < bulk {
		t.Fatal("100 WAN round trips should beat 1 MB in one flight... inverted")
	}
}

func TestWANSlowerThanLAN(t *testing.T) {
	for _, bytes := range []int64{1000, 1 << 20, 1 << 30} {
		if WAN.Latency(bytes, 3) <= LAN.Latency(bytes, 3) {
			t.Fatalf("WAN should be slower at %d bytes", bytes)
		}
	}
}

func TestLatencyOfStats(t *testing.T) {
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	_ = a.Send(make([]byte, 1000))
	_, _ = b.Recv()
	_ = b.Send(make([]byte, 500))
	_, _ = a.Recv()
	st := a.Stats()
	// A finished run is priced from its transport stats: both
	// directions' bytes and its flights.
	if st.TotalBytes() != 1500 {
		t.Fatalf("stats count %d bytes, want 1500", st.TotalBytes())
	}
	want := 1500*8/LAN.BandwidthBps + float64(st.Flights)*LAN.RTTSeconds
	if got := LAN.Latency(st.TotalBytes(), st.Flights); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Latency = %g, want %g", got, want)
	}
}

func TestSettingsMatchPaper(t *testing.T) {
	if LAN.BandwidthBps != 3e9 || LAN.RTTSeconds != 0.15e-3 {
		t.Fatal("LAN setting drifted from §6.5")
	}
	if WAN.BandwidthBps != 400e6 || WAN.RTTSeconds != 20e-3 {
		t.Fatal("WAN setting drifted from §6.5")
	}
}
