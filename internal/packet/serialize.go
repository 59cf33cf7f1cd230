package packet

// SerializeBuffer builds packets back to front: each header prepends its
// bytes, treating the current buffer contents as its payload. The buffer
// keeps headroom at the front so prepends rarely copy.
type SerializeBuffer struct {
	buf   []byte
	start int
}

// headroom is the front space an empty buffer keeps for header prepends:
// room for typical header stacks.
const headroom = 128

// NewSerializeBuffer returns an empty buffer.
func NewSerializeBuffer() *SerializeBuffer {
	return &SerializeBuffer{buf: make([]byte, headroom), start: headroom}
}

// Bytes returns the assembled packet so far.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Clear resets the buffer for reuse, preserving capacity: it truncates to
// the bare headroom, so a buffer cycled through frames of one size stops
// growing after the first. The zero SerializeBuffer is ready after Clear.
func (b *SerializeBuffer) Clear() {
	if cap(b.buf) < headroom {
		b.buf = make([]byte, headroom)
	}
	b.buf, b.start = b.buf[:headroom], headroom
}

// PrependBytes reserves n bytes at the front of the buffer and returns the
// slice to fill in.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n <= b.start {
		b.start -= n
		return b.buf[b.start : b.start+n]
	}
	grow := n - b.start + 128
	nb := make([]byte, len(b.buf)+grow)
	copy(nb[grow:], b.buf)
	b.buf = nb
	b.start += grow
	b.start -= n
	return b.buf[b.start : b.start+n]
}

// PushPayload appends payload data to the buffer.
func (b *SerializeBuffer) PushPayload(p []byte) {
	b.buf = append(b.buf, p...)
}
