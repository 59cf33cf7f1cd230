// Package packet implements packet decoding and serialization for the
// Gallium simulator. Like a P4 parser's header vector, a decoded Packet
// holds the parsed header fields and validity flags and nothing else: each
// header decoder reads its fields and hands the rest of the frame to the
// next, and Serialize rebuilds the frame from the fields, the way a
// deparser does.
//
// The package supports Ethernet, IPv4, IPv6, TCP, UDP, GRE and IP-in-IP
// encapsulation, raw payloads, and the synthesized Gallium header that the
// compiler inserts between the Ethernet and IP headers to carry temporary
// state between the switch and the middlebox server (§4.3.2 of the paper).
package packet

import "fmt"

// LayerType names the protocol header a DecodeError is about.
type LayerType int

// Known layer types.
const (
	LayerTypeEthernet LayerType = iota + 1
	LayerTypeGallium
	LayerTypeIPv4
	LayerTypeTCP
	LayerTypeUDP
	LayerTypeIPv6
	LayerTypeGRE
)

// String returns the conventional name of the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeGallium:
		return "Gallium"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypeIPv6:
		return "IPv6"
	case LayerTypeGRE:
		return "GRE"
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// DecodeError describes a failure while decoding one layer of a packet.
type DecodeError struct {
	Layer LayerType
	Msg   string
}

// Error implements the error interface.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("packet: decoding %s: %s", e.Layer, e.Msg)
}

func errTooShort(t LayerType, need, have int) error {
	return &DecodeError{Layer: t, Msg: fmt.Sprintf("need %d bytes, have %d", need, have)}
}
