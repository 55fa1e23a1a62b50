// Package appnet defines the thin connection abstraction the example
// applications (memcached, the webserver, NetPIPE, the load generators)
// are written against, with two implementations:
//
//   - Native: EbbRT's direct stack interface. Receive callbacks run
//     synchronously from the device driver; sends go straight to the
//     stack, with the application-side buffering the paper prescribes
//     (data beyond the remote window is held by the app and drained as
//     acknowledgments arrive).
//   - GPOS (package gpos): the same protocol stack behind a general
//     purpose OS model - syscalls, user/kernel copies, softirq handoff
//     and scheduler wakeups.
//
// Writing each application once against this interface is what lets the
// benchmark harnesses compare runtimes without duplicating app logic.
package appnet

import (
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/netstack"
	"ebbrt/internal/sim"
)

// Conn is one TCP connection as seen by an application.
type Conn interface {
	// Send queues payload for transmission. It always accepts the data;
	// the implementation is responsible for windowing/buffering. The
	// bytes are consumed before Send returns - sent, or copied into the
	// connection's send buffer - so the caller may reuse them at once.
	Send(c *event.Ctx, payload *iobuf.IOBuf)
	// Close initiates an orderly shutdown.
	Close(c *event.Ctx)
	// Core reports the core the connection is pinned to.
	Core() int
}

// Callbacks are the application's connection event handlers.
type Callbacks struct {
	// OnData delivers received payload. The runtime never rewrites those
	// bytes, but they are only the handler's for the call: a receiver
	// that keeps any of them past it copies them.
	OnData func(c *event.Ctx, conn Conn, payload *iobuf.IOBuf)
	// OnClose fires at full teardown; err non-nil on abnormal close.
	OnClose func(c *event.Ctx, conn Conn, err error)
}

// Runtime abstracts "an OS this app runs on" for servers and clients.
type Runtime interface {
	// Listen accepts connections on port; accept returns the callbacks
	// for each new connection.
	Listen(port uint16, accept func(conn Conn) Callbacks) error
	// Dial opens a connection and invokes onConnect when established.
	Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb Callbacks, onConnect func(c *event.Ctx, conn Conn))
	// Mgrs exposes the per-core event managers.
	Mgrs() []*event.Manager
	// Kernel exposes the simulation kernel.
	Kernel() *sim.Kernel
	// Name identifies the runtime in experiment output.
	Name() string
}

// Native is the EbbRT-native runtime: the application sits directly on the
// stack.
type Native struct {
	Stack *netstack.Stack
	Itf   *netstack.Interface
	// RuntimeName overrides the default "EbbRT" label.
	RuntimeName string
}

// NewNative wraps a configured stack interface.
func NewNative(st *netstack.Stack, itf *netstack.Interface) *Native {
	return &Native{Stack: st, Itf: itf}
}

// Name implements Runtime.
func (n *Native) Name() string {
	if n.RuntimeName != "" {
		return n.RuntimeName
	}
	return "EbbRT"
}

// Mgrs implements Runtime.
func (n *Native) Mgrs() []*event.Manager { return n.Stack.Mgrs }

// Kernel implements Runtime.
func (n *Native) Kernel() *sim.Kernel { return n.Stack.M.K }

// Listen implements Runtime.
func (n *Native) Listen(port uint16, accept func(conn Conn) Callbacks) error {
	_, err := n.Itf.ListenTcp(port, func(c *event.Ctx, pcb *netstack.TcpPcb) netstack.ConnHandler {
		conn := &nativeConn{pcb: pcb}
		cb := accept(conn)
		return conn.handler(cb)
	})
	return err
}

// Dial implements Runtime.
func (n *Native) Dial(c *event.Ctx, ip netstack.Ipv4Addr, port uint16, cb Callbacks, onConnect func(c *event.Ctx, conn Conn)) {
	conn := &nativeConn{}
	h := conn.handler(cb)
	inner := h.OnConnected
	h.OnConnected = func(c *event.Ctx, pcb *netstack.TcpPcb) {
		if inner != nil {
			inner(c, pcb)
		}
		if onConnect != nil {
			onConnect(c, conn)
		}
	}
	pcb, err := n.Itf.ConnectTcp(c, ip, port, h)
	if err != nil {
		if cb.OnClose != nil {
			cb.OnClose(c, conn, err)
		}
		return
	}
	conn.pcb = pcb
}

// nativeConn implements the application-side send buffering the paper
// describes: the app hands data to Send; whatever fits the remote window
// goes out immediately, the rest is held and drained on acknowledgment.
type nativeConn struct {
	pcb     *netstack.TcpPcb
	pending [][]byte
	closed  bool
	// closeRequested defers FIN until the send buffer drains.
	closeRequested bool
}

// Core implements Conn.
func (nc *nativeConn) Core() int {
	if nc.pcb == nil {
		return 0
	}
	return nc.pcb.Core()
}

func (nc *nativeConn) handler(cb Callbacks) netstack.ConnHandler {
	return netstack.ConnHandler{
		OnReceive: func(c *event.Ctx, pcb *netstack.TcpPcb, payload *iobuf.IOBuf) {
			if cb.OnData != nil {
				cb.OnData(c, nc, payload)
			}
		},
		OnAcked: func(c *event.Ctx, pcb *netstack.TcpPcb, nBytes int) {
			nc.drain(c)
		},
		OnWindowOpen: func(c *event.Ctx, pcb *netstack.TcpPcb) {
			nc.drain(c)
		},
		OnRemoteClosed: func(c *event.Ctx, pcb *netstack.TcpPcb) {
			// The peer finished sending; once our buffered data drains,
			// complete the shutdown so both sides observe OnClose.
			nc.Close(c)
		},
		OnClosed: func(c *event.Ctx, pcb *netstack.TcpPcb, err error) {
			nc.closed = true
			if cb.OnClose != nil {
				cb.OnClose(c, nc, err)
			}
		},
	}
}

// Send implements Conn.
func (nc *nativeConn) Send(c *event.Ctx, payload *iobuf.IOBuf) {
	if nc.closed || nc.pcb == nil {
		return
	}
	if len(nc.pending) == 0 {
		n := payload.ComputeChainDataLength()
		if w := nc.pcb.SendWindowRemaining(); n <= w {
			if err := nc.pcb.Send(c, payload); err == nil {
				return
			}
		}
	}
	nc.pending = append(nc.pending, payload.CopyOut())
	nc.drain(c)
}

// drain pushes buffered data as the window allows.
func (nc *nativeConn) drain(c *event.Ctx) {
	if nc.closed || nc.pcb == nil {
		return
	}
	for len(nc.pending) > 0 {
		head := nc.pending[0]
		w := nc.pcb.SendWindowRemaining()
		if w == 0 {
			return
		}
		n := len(head)
		if n > w {
			n = w
		}
		if err := nc.pcb.Send(c, iobuf.Wrap(head[:n])); err != nil {
			return
		}
		if n == len(head) {
			nc.pending = nc.pending[1:]
		} else {
			nc.pending[0] = head[n:]
		}
	}
	if nc.closeRequested && len(nc.pending) == 0 {
		nc.closeRequested = false
		nc.pcb.Close(c)
	}
}

// Close implements Conn; it defers FIN until buffered data drains.
func (nc *nativeConn) Close(c *event.Ctx) {
	if nc.closed || nc.pcb == nil {
		return
	}
	if len(nc.pending) > 0 {
		nc.closeRequested = true
		return
	}
	nc.pcb.Close(c)
}
