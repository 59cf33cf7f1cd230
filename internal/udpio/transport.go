package udpio

import (
	"net"
	"net/netip"
	"time"
)

// genericIO is the portable transport: one blocking read honoring the
// caller's deadline, then a non-blocking drain loop up to the batch size.
// It moves one datagram per syscall but keeps the batch shape identical
// to the mmsg transport, so everything above the socketIO interface is
// exercised the same way on every platform.
type genericIO struct {
	pc        *net.UDPConn
	connected bool
}

func (g *genericIO) ReadBatch(ms []mmsg, deadline time.Time) (int, error) {
	if err := g.pc.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	n, addr, err := g.read(ms[0].buf)
	if err != nil {
		return 0, err
	}
	ms[0].buf = ms[0].buf[:n]
	ms[0].addr = addr
	count := 1
	// Whatever else is already queued comes out without blocking: an
	// immediately-expired deadline makes every further read non-blocking.
	g.pc.SetReadDeadline(time.Now())
	for count < len(ms) {
		n, addr, err := g.read(ms[count].buf)
		if err != nil {
			break
		}
		ms[count].buf = ms[count].buf[:n]
		ms[count].addr = addr
		count++
	}
	return count, nil
}

func (g *genericIO) read(buf []byte) (int, netip.AddrPort, error) {
	if g.connected {
		n, err := g.pc.Read(buf)
		return n, netip.AddrPort{}, err
	}
	return g.pc.ReadFromUDPAddrPort(buf)
}

func (g *genericIO) WriteBatch(ms []mmsg, _ *ioScratch) (int, error) {
	for i := range ms {
		var err error
		if g.connected {
			_, err = g.pc.Write(ms[i].buf)
		} else {
			_, err = g.pc.WriteToUDPAddrPort(ms[i].buf, ms[i].addr)
		}
		if err != nil {
			return i, err
		}
	}
	return len(ms), nil
}
