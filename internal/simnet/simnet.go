// Package simnet models the network between the two protocol parties.
// The paper evaluates two settings (§6.5, following Cheetah): a LAN
// (3 Gbps, 0.15 ms RTT) and a WAN (400 Mbps, 20 ms RTT). Protocol wire
// time is bytes/bandwidth + flights*RTT, computed from the transport
// statistics of a real run or from a modeled byte count.
package simnet

// Network is a bandwidth/latency pair.
type Network struct {
	Name         string
	BandwidthBps float64 // bits per second
	RTTSeconds   float64
}

// The two settings of Table 5 / Figure 7(c).
var (
	LAN = Network{Name: "LAN(3Gbps,0.15ms)", BandwidthBps: 3e9, RTTSeconds: 0.15e-3}
	WAN = Network{Name: "WAN(400Mbps,20ms)", BandwidthBps: 400e6, RTTSeconds: 20e-3}
)

// Latency returns the wire time of a protocol that moves the given
// bytes in the given number of flights (direction changes).
func (n Network) Latency(bytes int64, flights int) float64 {
	return float64(bytes)*8/n.BandwidthBps + float64(flights)*n.RTTSeconds
}
