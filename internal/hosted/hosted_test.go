package hosted

import (
	"testing"

	"ebbrt/internal/core"
	"ebbrt/internal/event"
	"ebbrt/internal/future"
	"ebbrt/internal/sim"
)

func TestMessengerRoundTrip(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()

	var atFrontend []byte
	var replied []byte
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		atFrontend = payload
		sys.Frontend().Messenger.Send(c, src, id, append([]byte("re:"), payload...))
	})
	native.Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		replied = payload
	})
	native.Spawn(func(c *event.Ctx) {
		native.Messenger.Send(c, 0, id, []byte("hello frontend"))
	})
	sys.K.RunUntil(2 * sim.Second)
	if string(atFrontend) != "hello frontend" {
		t.Fatalf("frontend got %q", atFrontend)
	}
	if string(replied) != "re:hello frontend" {
		t.Fatalf("native got %q", replied)
	}
}

func TestMessengerLocalDelivery(t *testing.T) {
	sys := NewSystem()
	id := sys.AllocateEbbId()
	got := ""
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = string(payload)
	})
	sys.Frontend().Spawn(func(c *event.Ctx) {
		sys.Frontend().Messenger.Send(c, 0, id, []byte("local"))
	})
	sys.K.RunUntil(100 * sim.Millisecond)
	if got != "local" {
		t.Fatalf("got %q", got)
	}
}

func TestMessengerManyMessagesOrdered(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()
	var got []byte
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, payload...)
	})
	native.Spawn(func(c *event.Ctx) {
		for i := 0; i < 50; i++ {
			native.Messenger.Send(c, 0, id, []byte{byte(i)})
		}
	})
	sys.K.RunUntil(2 * sim.Second)
	if len(got) != 50 {
		t.Fatalf("received %d of 50", len(got))
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: %v", i, got[:10])
		}
	}
}

func TestNodeKillPartitionsAndReviveResumes(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()

	var got []string
	sys.Frontend().Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, string(payload))
	})
	// Establish the messenger connection while the node is healthy.
	native.Spawn(func(c *event.Ctx) {
		native.Messenger.Send(c, 0, id, []byte("before"))
	})
	sys.K.RunUntil(1 * sim.Second)
	if len(got) != 1 || got[0] != "before" {
		t.Fatalf("pre-kill message lost: %v", got)
	}

	// Kill the node: messages sent while dead must not arrive.
	native.Kill()
	if native.Alive() {
		t.Fatal("killed node reports alive")
	}
	native.Spawn(func(c *event.Ctx) {
		native.Messenger.Send(c, 0, id, []byte("during"))
	})
	sys.K.RunUntil(sys.K.Now() + 50*sim.Millisecond)
	if len(got) != 1 {
		t.Fatalf("message escaped a killed node: %v", got)
	}

	// Revive: TCP retransmission recovers the partition-era message.
	native.Revive()
	if !native.Alive() {
		t.Fatal("revived node reports dead")
	}
	sys.K.RunUntil(sys.K.Now() + 2*sim.Second)
	if len(got) != 2 || got[1] != "during" {
		t.Fatalf("retransmission did not recover message: %v", got)
	}
}

func TestMessengerRedialsAfterFailedDial(t *testing.T) {
	// A dial to a dead node must not wedge the destination: once the
	// failed dial tears down, a later Send redials and succeeds.
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	id := sys.AllocateEbbId()
	var got []string
	native.Messenger.Register(id, func(c *event.Ctx, src NodeId, payload []byte) {
		got = append(got, string(payload))
	})

	native.Kill()
	sys.Frontend().Spawn(func(c *event.Ctx) {
		sys.Frontend().Messenger.Send(c, native.Id, id, []byte("lost"))
	})
	// Long enough for the SYN retransmissions to give up (RTO 200ms with
	// exponential backoff through 9 doublings is ~205s of virtual time).
	sys.K.RunUntil(250 * sim.Second)
	native.Revive()
	got = got[:0] // only the post-revival send matters
	sys.Frontend().Spawn(func(c *event.Ctx) {
		sys.Frontend().Messenger.Send(c, native.Id, id, []byte("after"))
	})
	sys.K.RunUntil(sys.K.Now() + 2*sim.Second)
	if len(got) != 1 || got[0] != "after" {
		t.Fatalf("messenger wedged after failed dial: %v", got)
	}
}

func TestEbbIdAllocationSharedNamespace(t *testing.T) {
	sys := NewSystem()
	sys.AddNativeNode(1)
	a := sys.AllocateEbbId()
	b := sys.AllocateEbbId()
	if a == b {
		t.Fatal("duplicate system-wide ids")
	}
	// Ids allocated by the system must not collide with per-domain ones.
	for _, n := range sys.Nodes {
		if local := n.Domain.AllocateId(); local <= b {
			t.Fatalf("node %d local id %d collides with system ids", n.Id, local)
		}
	}
}

func TestFileSystemOffload(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)

	var readBack []byte
	var size uint64
	var names []string
	var readErr error
	native.Spawn(func(c *event.Ctx) {
		// Write via the native rep: function-ships to the frontend. The
		// event blocks on each reply, so every call runs on a live Ctx.
		if _, err := fs.Write(c, native, "/etc/config", []byte("port=11211")).Block(c); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		readBack, readErr = fs.Read(c, native, "/etc/config").Block(c)
		size, _ = fs.Stat(c, native, "/etc/config").Block(c)
		names, _ = fs.List(c, native).Block(c)
	})
	sys.K.RunUntil(5 * sim.Second)
	if readErr != nil {
		t.Fatalf("read: %v", readErr)
	}
	if string(readBack) != "port=11211" {
		t.Fatalf("read back %q", readBack)
	}
	if size != 10 {
		t.Fatalf("stat size %d", size)
	}
	if len(names) != 1 || names[0] != "/etc/config" {
		t.Fatalf("list %v", names)
	}
}

func TestFileSystemReadMissing(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)
	var err error
	done := false
	native.Spawn(func(c *event.Ctx) {
		fs.Read(c, native, "/does/not/exist").OnDone(func(r future.Result[[]byte]) {
			_, err = r.Get()
			done = true
		})
	})
	sys.K.RunUntil(5 * sim.Second)
	if !done || err == nil {
		t.Fatalf("missing file should error: done=%v err=%v", done, err)
	}
}

func TestFileSystemFrontendLocal(t *testing.T) {
	sys := NewSystem()
	fs := NewFileSystem(sys)
	front := sys.Frontend()
	var got []byte
	front.Spawn(func(c *event.Ctx) {
		fs.Write(c, front, "/a", []byte("x")).OnDone(func(future.Result[future.Unit]) {
			fs.Read(c, front, "/a").OnDone(func(r future.Result[[]byte]) {
				got = r.Must()
			})
		})
	})
	sys.K.RunUntil(1 * sim.Second)
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestBlockingOffloadFromEvent(t *testing.T) {
	// The paper's libuv port uses save/restore to give blocking semantics:
	// a native event blocks on a filesystem future.
	sys := NewSystem()
	native := sys.AddNativeNode(1)
	fs := NewFileSystem(sys)
	var got []byte
	var err error
	done := false
	native.Spawn(func(c *event.Ctx) {
		if _, werr := fs.Write(c, native, "/boot.cfg", []byte("cores=4")).Block(c); werr != nil {
			t.Errorf("write: %v", werr)
		}
		got, err = fs.Read(c, native, "/boot.cfg").Block(c)
		done = true
	})
	sys.K.RunUntil(5 * sim.Second)
	if !done {
		t.Fatal("blocked event never resumed")
	}
	if err != nil || string(got) != "cores=4" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestDomainKindsPerNode(t *testing.T) {
	sys := NewSystem()
	native := sys.AddNativeNode(2)
	// The frontend domain is hash-backed, natives array-backed; both must
	// serve the same Ebb API.
	for _, n := range []*Node{sys.Frontend(), native} {
		ref := core.Allocate(n.Domain, func(corei int) *struct{ v int } {
			return &struct{ v int }{v: corei}
		})
		if ref.Get(0).v != 0 {
			t.Fatal("rep wrong")
		}
	}
}
