package netstack

import (
	"fmt"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
)

// arpCache maps IPv4 addresses to Ethernet addresses and tracks in-flight
// resolutions. Within the native environment all mutation happens on
// kernel events, so no lock is needed - mirroring how the C++ system hides
// the representative coordination behind the Ebb interface.
type arpCache struct {
	entries map[Ipv4Addr]EthAddr
	pending map[Ipv4Addr][]arpWaiter
}

// arpWaiter is work parked on an unresolved address. It runs on the
// event that settles the resolution - the ARP reply's receive event, or
// the timeout's timer event - and is handed that event's Ctx, so what it
// charges lands on the event doing the work, not on the long-finished
// event that hit the miss.
type arpWaiter func(c *event.Ctx, mac EthAddr, err error)

func newArpCache() *arpCache {
	return &arpCache{
		entries: map[Ipv4Addr]EthAddr{},
		pending: map[Ipv4Addr][]arpWaiter{},
	}
}

// arpResolve parks w until ip, which is not in the cache, resolves. The
// first waiter for an address sends the ARP request; w runs on the reply
// or fails on timeout.
func (itf *Interface) arpResolve(c *event.Ctx, ip Ipv4Addr, w arpWaiter) {
	first := len(itf.arp.pending[ip]) == 0
	itf.arp.pending[ip] = append(itf.arp.pending[ip], w)
	if first {
		itf.sendArp(c, arpOpRequest, machine.Broadcast, ip)
		c.Manager().After(itf.St.Cfg.ArpTimeout, func(c *event.Ctx) {
			waiters := itf.arp.pending[ip]
			if len(waiters) == 0 {
				return // resolved in time
			}
			delete(itf.arp.pending, ip)
			err := fmt.Errorf("netstack: arp timeout resolving %v", ip)
			for _, w := range waiters {
				w(c, EthAddr{}, err)
			}
		})
	}
}

func (itf *Interface) sendArp(c *event.Ctx, op uint16, targetHW EthAddr, targetIP Ipv4Addr) {
	pkt := ArpPacket{
		Op:       op,
		SenderHW: itf.NIC.Mac,
		SenderIP: itf.Addr,
		TargetHW: targetHW,
		TargetIP: targetIP,
	}
	buf := iobuf.New(EthHeaderLen + ArpPacketLen)
	dst := targetHW
	if op == arpOpRequest {
		dst = machine.Broadcast
	}
	writeEth(buf.Append(EthHeaderLen), EthHeader{Dst: dst, Src: itf.NIC.Mac, Type: EtherTypeARP})
	writeArp(buf.Append(ArpPacketLen), pkt)
	itf.transmit(c, buf, 0)
}

func (itf *Interface) receiveArp(c *event.Ctx, buf *iobuf.IOBuf) {
	pkt, err := parseArp(buf.Data())
	if err != nil {
		return
	}
	// Opportunistically learn the sender mapping.
	if !pkt.SenderIP.IsZero() {
		itf.arp.entries[pkt.SenderIP] = pkt.SenderHW
		if waiters, ok := itf.arp.pending[pkt.SenderIP]; ok {
			delete(itf.arp.pending, pkt.SenderIP)
			for _, w := range waiters {
				w(c, pkt.SenderHW, nil)
			}
		}
	}
	if pkt.Op == arpOpRequest && pkt.TargetIP == itf.Addr {
		itf.sendArp(c, arpOpReply, pkt.SenderHW, pkt.SenderIP)
	}
}
