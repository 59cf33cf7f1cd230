//go:build linux && amd64

package udpio

import (
	"net"
	"net/netip"
	"syscall"
	"time"
	"unsafe"
)

// newSocketIO selects the recvmmsg/sendmmsg transport unless the portable
// path was forced (tests exercise both).
func newSocketIO(pc *net.UDPConn, generic, connected bool) (socketIO, error) {
	if generic {
		return &genericIO{pc: pc, connected: connected}, nil
	}
	rc, err := pc.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &mmsgIO{pc: pc, rc: rc, connected: connected}, nil
}

// mmsgIO moves whole batches per syscall via recvmmsg/sendmmsg on the
// runtime-managed nonblocking socket: MSG_DONTWAIT plus the RawConn
// Read/Write callbacks gives batched I/O that still parks on the netpoller
// (and honors read deadlines) instead of spinning.
type mmsgIO struct {
	pc        *net.UDPConn
	rc        syscall.RawConn
	connected bool
	rx        ioScratch // one reader per socket, so the transport owns it
}

// mmsghdr mirrors struct mmsghdr on linux/amd64: a msghdr plus the
// kernel-filled datagram length.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// recvmmsg/sendmmsg syscall numbers on linux/amd64 (the build tag pins
// the arch; other platforms use the generic transport).
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)

// ioScratch is what one batched syscall needs besides the datagrams: the
// header, iovec and sockaddr arrays, and the RawConn callback bound once
// (a closure per batch would allocate, with everything it captures). It
// grows to the largest batch seen and is then reused, so a steady-state
// batch allocates nothing. Not safe for concurrent use: the receive side's
// belongs to the transport, a sender brings its own.
type ioScratch struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	call  func(fd uintptr) bool

	// One syscall's arguments and results: hdrs[lo:hi] go to sysno, n
	// messages were moved or errno is set.
	sysno  uintptr
	lo, hi int
	n      int
	errno  syscall.Errno
}

// point aims the first len(ms) headers at the datagrams' buffers (and,
// unconnected, at the sockaddr slots) and the next syscall at all of them.
func (s *ioScratch) point(ms []mmsg, sysno uintptr, named bool) {
	if len(s.hdrs) < len(ms) {
		s.hdrs = make([]mmsghdr, len(ms))
		s.iovs = make([]syscall.Iovec, len(ms))
		s.names = make([]syscall.RawSockaddrInet4, len(ms))
		s.call = s.do
	}
	s.sysno, s.lo, s.hi = sysno, 0, len(ms)
	for i := range ms {
		s.iovs[i].Base = unsafe.SliceData(ms[i].buf) // an empty datagram has no [0]
		s.iovs[i].SetLen(len(ms[i].buf))
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
		if named {
			s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.names[i]))
			s.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(s.names[i]))
		}
	}
}

// do is the RawConn callback: false parks the goroutine on the
// netpoller until the socket is ready (or the deadline passes).
func (s *ioScratch) do(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(s.sysno, fd,
		uintptr(unsafe.Pointer(&s.hdrs[s.lo])), uintptr(s.hi-s.lo),
		syscall.MSG_DONTWAIT, 0, 0)
	if errno == syscall.EAGAIN {
		return false
	}
	s.n, s.errno = int(r1), errno
	return true
}

func (m *mmsgIO) ReadBatch(ms []mmsg, deadline time.Time) (int, error) {
	if err := m.pc.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	s := &m.rx
	s.point(ms, sysRecvmmsg, !m.connected)
	if err := m.rc.Read(s.call); err != nil {
		return 0, err
	}
	if s.errno != 0 {
		return 0, s.errno
	}
	for i := 0; i < s.n; i++ {
		ms[i].buf = ms[i].buf[:s.hdrs[i].len]
		if !m.connected {
			ms[i].addr = sockaddrToAddrPort(&s.names[i])
		}
	}
	return s.n, nil
}

func (m *mmsgIO) WriteBatch(ms []mmsg, s *ioScratch) (int, error) {
	s.point(ms, sysSendmmsg, !m.connected)
	if !m.connected {
		for i := range ms {
			s.names[i] = addrPortToSockaddr(ms[i].addr)
		}
	}
	for ; s.lo < s.hi; s.lo += s.n {
		if err := m.rc.Write(s.call); err != nil {
			return s.lo, err
		}
		if s.errno != 0 {
			return s.lo, s.errno
		}
		if s.n == 0 {
			break
		}
	}
	return s.lo, nil
}

// sockaddrToAddrPort converts a kernel-filled IPv4 sockaddr; the port sits
// in network byte order, so the uint16 read on little-endian needs a swap.
func sockaddrToAddrPort(sa *syscall.RawSockaddrInet4) netip.AddrPort {
	port := sa.Port<<8 | sa.Port>>8
	return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
}

func addrPortToSockaddr(ap netip.AddrPort) syscall.RawSockaddrInet4 {
	p := ap.Port()
	return syscall.RawSockaddrInet4{
		Family: syscall.AF_INET,
		Port:   p<<8 | p>>8,
		Addr:   ap.Addr().As4(),
	}
}
