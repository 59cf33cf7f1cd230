//go:build !(linux && amd64)

package udpio

import "net"

// newSocketIO: without the linux/amd64 mmsg syscalls, the portable drain
// loop is the only transport.
func newSocketIO(pc *net.UDPConn, generic, connected bool) (socketIO, error) {
	return &genericIO{pc: pc, connected: connected}, nil
}

// ioScratch is the batched-syscall scratch of the mmsg transport; the
// portable transport needs none.
type ioScratch struct{}
