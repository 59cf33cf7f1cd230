// Package packet implements packet decoding and serialization for the
// Gallium simulator, modeled after the gopacket API: packets decode into a
// stack of layers, and each layer knows its own contents and payload.
//
// The package supports Ethernet, IPv4, TCP, UDP, raw payloads, and the
// synthesized Gallium header that the compiler inserts between the Ethernet
// and IP headers to carry temporary state between the switch and the
// middlebox server (§4.3.2 of the paper).
package packet

import "fmt"

// LayerType identifies a protocol layer within a packet.
type LayerType int

// Known layer types.
const (
	LayerTypeZero LayerType = iota
	LayerTypeEthernet
	LayerTypeGallium
	LayerTypeIPv4
	LayerTypeTCP
	LayerTypeUDP
	LayerTypePayload
	LayerTypeDecodeFailure
	LayerTypeIPv6
	LayerTypeGRE
)

// String returns the conventional name of the layer type.
func (t LayerType) String() string {
	switch t {
	case LayerTypeZero:
		return "Zero"
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
	case LayerTypePayload:
		return "Payload"
	case LayerTypeDecodeFailure:
		return "DecodeFailure"
	case LayerTypeIPv6:
		return "IPv6"
	case LayerTypeGRE:
		return "GRE"
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// Layer is a decoded protocol layer.
type Layer interface {
	// LayerType returns the type of this layer.
	LayerType() LayerType
	// LayerContents returns the bytes that make up this layer's header.
	LayerContents() []byte
	// LayerPayload returns the bytes this layer carries (everything after
	// the header).
	LayerPayload() []byte
}

// DecodingLayer is a layer that can decode itself from bytes in place,
// without allocation. It mirrors gopacket's DecodingLayer.
type DecodingLayer interface {
	Layer
	// DecodeFromBytes resets the receiver and decodes it from data.
	DecodeFromBytes(data []byte) error
	// NextLayerType reports the type of the layer that follows this one,
	// or LayerTypeZero if unknown/none.
	NextLayerType() LayerType
	// CanDecode reports the layer type this decoder handles.
	CanDecode() LayerType
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

// Payload is a trailing application-layer blob.
type Payload []byte

// LayerType implements Layer.
func (p Payload) LayerType() LayerType { return LayerTypePayload }

// LayerContents implements Layer.
func (p Payload) LayerContents() []byte { return p }

// LayerPayload implements Layer.
func (p Payload) LayerPayload() []byte { return nil }

// DecodeFromBytes implements DecodingLayer.
func (p *Payload) DecodeFromBytes(data []byte) error {
	*p = data
	return nil
}

// NextLayerType implements DecodingLayer.
func (p Payload) NextLayerType() LayerType { return LayerTypeZero }

// CanDecode implements DecodingLayer.
func (p Payload) CanDecode() LayerType { return LayerTypePayload }
