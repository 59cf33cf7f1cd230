package engine

import (
	"fmt"

	"gallium/internal/packet"
)

// FlowDriver sends one TCP flow through the packet-level testbed with
// slow-start windowing: each round sends a window of MSS-sized segments
// back to back, then waits one RTT (forward delivery plus the reverse
// path) before growing the window. It exists to cross-validate the fluid
// workload engine: for an uncontended flow, both must predict the same
// completion time.
type FlowDriver struct {
	TB         *Testbed
	MSS        int
	InitWindow int
}

// FlowResult reports one driven flow.
type FlowResult struct {
	FCTNs   int64
	Packets int
	Rounds  int
}

// Run sends size bytes of the given connection starting at startNs and
// returns when the last segment is delivered. The reverse (ACK) path is
// approximated as the forward fast-path latency: ACKs cross the same
// switch but skip the middlebox server.
func (fd *FlowDriver) Run(startNs int64, tup packet.FiveTuple, size int64) (FlowResult, error) {
	if fd.MSS <= 0 {
		fd.MSS = 1460
	}
	if fd.InitWindow <= 0 {
		fd.InitWindow = 10
	}
	m := fd.TB.walk.Model
	reverseNs := int64(2*m.EndpointStackNs + 2*m.LinkPropNs + m.SwitchPipelineNs +
		m.SerializationNs(64))

	res := FlowResult{}
	remaining := int((size + int64(fd.MSS) - 1) / int64(fd.MSS))
	if remaining == 0 {
		remaining = 1
	}

	// SYN establishes middlebox state (and pays any synchronization
	// stall under output commit).
	t := startNs
	syn := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort, packet.TCPOptions{Flags: packet.TCPFlagSYN})
	d, err := fd.TB.Inject(t, syn)
	if err != nil {
		return res, err
	}
	if !d.Delivered {
		return res, fmt.Errorf("engine: SYN not delivered")
	}
	res.Packets++
	// Handshake completes one reverse trip later.
	t = d.DeliverNs + reverseNs

	w := fd.InitWindow
	lastDeliver := d.DeliverNs
	var seq uint32
	for remaining > 0 {
		res.Rounds++
		burst := w
		if burst > remaining {
			burst = remaining
		}
		sendAt := t
		for i := 0; i < burst; i++ {
			p := packet.BuildTCP(tup.SrcIP, tup.DstIP, tup.SrcPort, tup.DstPort,
				packet.TCPOptions{Flags: packet.TCPFlagACK, Seq: seq})
			p.PadTo(fd.MSS + 54)
			d, err := fd.TB.Inject(sendAt, p)
			if err != nil {
				return res, err
			}
			if d.Delivered {
				if d.DeliverNs > lastDeliver {
					lastDeliver = d.DeliverNs
				}
				res.Packets++
			}
			seq += uint32(fd.MSS)
			// Back-to-back at the sender's line rate.
			sendAt += int64(m.SerializationNs(fd.MSS + 54))
		}
		remaining -= burst
		// The next round starts when the last ACK returns.
		t = lastDeliver + reverseNs
		w *= 2
	}
	res.FCTNs = lastDeliver + reverseNs - startNs
	return res, nil
}
