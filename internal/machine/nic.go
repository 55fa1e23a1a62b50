package machine

import (
	"fmt"

	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String renders the address in colon-hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// Frame is one Ethernet frame in flight: the packet bytes (starting at the
// Ethernet header) plus the flow hash the sending NIC computed for
// receive-side scaling, standing in for the hardware Toeplitz hash.
type Frame struct {
	Buf  *iobuf.IOBuf
	Hash uint32
}

// DstMAC reads the destination address from the frame header.
func (f Frame) DstMAC() MAC {
	var m MAC
	b, err := f.Buf.Reader().ReadBytes(6)
	if err != nil {
		return m
	}
	copy(m[:], b)
	return m
}

// Len reports the frame's total byte length.
func (f Frame) Len() int { return f.Buf.ComputeChainDataLength() }

// Port is anywhere a NIC can hand a frame: the far NIC of a point-to-point
// link, or a switch port.
type Port interface {
	// Send transmits the frame; delivery latency is the port's concern.
	Send(f Frame)
}

// RxQueue is one NIC receive queue. The driver (EbbRT's virtio-net
// equivalent, or the GPOS model) pops frames from it, and may mask its
// interrupt to poll instead - the adaptive strategy of paper §3.2.
type RxQueue struct {
	nic        *NIC
	idx        int
	ring       sim.FIFO[Frame]
	irqEnabled bool
	vector     int
	core       *Core
	// inject is q.raise as a func value, bound by SetIRQ.
	inject func(Frame)
}

// Len reports queued frames.
func (q *RxQueue) Len() int { return q.ring.Len() }

// Pop removes and returns the oldest frame; ok is false when empty.
func (q *RxQueue) Pop() (Frame, bool) { return q.ring.Pop() }

// SetIRQ binds the queue to an interrupt vector on a core. Drivers allocate
// the vector from their event manager and program it here.
func (q *RxQueue) SetIRQ(core *Core, vector int) {
	q.core = core
	q.vector = vector
	q.irqEnabled = true
	q.inject = q.raise
}

// raise is the end of the hypervisor's interrupt-injection hop, which
// carries no frame.
func (q *RxQueue) raise(Frame) { q.core.RaiseIRQ(q.vector) }

// EnableIRQ re-enables the queue interrupt (leave polling mode). If frames
// are already queued, the interrupt fires immediately so none are stranded.
func (q *RxQueue) EnableIRQ() {
	q.irqEnabled = true
	if q.ring.Len() > 0 && q.core != nil {
		q.core.RaiseIRQ(q.vector)
	}
}

// DisableIRQ masks the queue interrupt (enter polling mode).
func (q *RxQueue) DisableIRQ() { q.irqEnabled = false }

// IRQEnabled reports whether the interrupt is unmasked.
func (q *RxQueue) IRQEnabled() bool { return q.irqEnabled }

// NIC models a virtio-net device (or the bare-metal X520 when the machine
// is not virtualized - the virtio/vhost costs drop to zero contributions on
// that path is controlled by Machine.Cfg.Virtualized).
type NIC struct {
	M      *Machine
	Mac    MAC
	Queues []*RxQueue
	down   bool
	// toPeer is the attached port's Send and arrive is n.enqueue, as
	// func values bound once so that no frame builds a method value.
	toPeer func(Frame)
	arrive func(Frame)

	// Stats
	TxFrames, RxFrames sim.Counter
	TxBytes, RxBytes   sim.Counter
	// DroppedFrames counts frames discarded in either direction while the
	// NIC was down.
	DroppedFrames sim.Counter
}

// NewNIC attaches a NIC with the configured number of receive queues.
func NewNIC(m *Machine, mac MAC) *NIC {
	n := &NIC{M: m, Mac: mac}
	n.arrive = n.enqueue
	for i := 0; i < m.Cfg.NICQueues; i++ {
		n.Queues = append(n.Queues, &RxQueue{nic: n, idx: i})
	}
	m.NICs = append(m.NICs, n)
	return n
}

// Attach connects the NIC to a port (link endpoint or switch port).
func (n *NIC) Attach(p Port) { n.toPeer = p.Send }

// SetUp raises or cuts the NIC's connection to its port. A down NIC
// silently discards frames in both directions - the machine is
// unreachable, as after a crash or cable pull - without disturbing any
// state above it, so peers observe the failure only through timeouts.
// Bringing the NIC back up resumes delivery; nothing queued during the
// outage survives it.
func (n *NIC) SetUp(up bool) { n.down = !up }

// Up reports whether the NIC is passing frames.
func (n *NIC) Up() bool { return !n.down }

// Transmit sends a frame. extraDelay lets the caller account for CPU time
// already charged in the current event (the frame leaves when the event's
// virtual work completes, preserving causality in the one-shot event
// execution model). The guest pays the virtio kick; the host side charges
// vhost processing before the wire.
func (n *NIC) Transmit(f Frame, extraDelay sim.Time) {
	if n.toPeer == nil {
		panic("machine: NIC transmit with no attached port")
	}
	if n.down {
		n.DroppedFrames.Inc()
		return
	}
	n.TxFrames.Inc()
	n.TxBytes.AddN(uint64(f.Len()))
	costs := &n.M.Cfg.Costs
	d := extraDelay + costs.NICLatency
	if n.M.Cfg.Virtualized {
		d += costs.VirtioKick + costs.VhostPerPacket
	}
	n.M.hops.at(n.M.K.Now()+d, f, n.toPeer)
}

// TxCPUCost reports the CPU time the transmitting core spends in the device
// path (the virtio kick); runtimes charge this to the sending event.
func (n *NIC) TxCPUCost() sim.Time {
	if n.M.Cfg.Virtualized {
		return n.M.Cfg.Costs.VirtioKick
	}
	return 200 * sim.Nanosecond
}

// Deliver is called by the attached port when a frame arrives at this NIC.
// The hypervisor charges vhost processing plus the reception copy, selects
// a receive queue by flow hash, and injects an interrupt if the queue is
// unmasked. The frame is physically copied into fresh guest memory - the
// hypervisor copy both systems pay (paper §4.1.3) - so the receiver's view
// manipulation never aliases the sender's retransmission buffers.
func (n *NIC) Deliver(f Frame) {
	if n.down {
		n.DroppedFrames.Inc()
		return
	}
	f = Frame{Buf: iobuf.Wrap(f.Buf.CopyOut()), Hash: f.Hash}
	costs := &n.M.Cfg.Costs
	d := costs.RxCopy(f.Len())
	if n.M.Cfg.Virtualized {
		d += costs.VhostPerPacket
	}
	n.M.hops.at(n.M.K.Now()+d, f, n.arrive)
}

// enqueue places an arrived frame on its receive queue and, if the queue
// is unmasked, injects the queue's interrupt.
func (n *NIC) enqueue(f Frame) {
	n.RxFrames.Inc()
	n.RxBytes.AddN(uint64(f.Len()))
	q := n.Queues[int(f.Hash)%len(n.Queues)]
	q.ring.Push(f)
	if q.irqEnabled && q.core != nil {
		if n.M.Cfg.Virtualized {
			n.M.hops.at(n.M.K.Now()+n.M.Cfg.Costs.IRQInject, Frame{}, q.inject)
		} else {
			q.core.RaiseIRQ(q.vector)
		}
	}
}

// nicPort adapts a NIC as the receiving end of a Port.
type nicPort struct{ n *NIC }

func (p nicPort) Send(f Frame) { p.n.Deliver(f) }

// PortOf returns a Port that delivers into the NIC, for wiring links.
func PortOf(n *NIC) Port { return nicPort{n} }

// hop is one frame, or one interrupt, in flight between two points of
// the model. Records are recycled through their pool's free list and
// bind their fire func once, so a hop allocates nothing once the pool
// has grown to the number in flight.
type hop struct {
	pool *hopPool
	f    Frame
	to   func(Frame)
	fire func()
}

// hopPool is the free list of one machine's, switch's or link's hops.
type hopPool struct {
	k    *sim.Kernel
	free []*hop
}

// at schedules to(f) at virtual time t.
func (p *hopPool) at(t sim.Time, f Frame, to func(Frame)) {
	var h *hop
	if n := len(p.free); n > 0 {
		h = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		h = &hop{pool: p}
		h.fire = h.run
	}
	h.f, h.to = f, to
	p.k.At(t, h.fire)
}

// run releases the record, then hands its frame on.
func (h *hop) run() {
	f, to := h.f, h.to
	h.f, h.to = Frame{}, nil
	h.pool.free = append(h.pool.free, h)
	to(f)
}
