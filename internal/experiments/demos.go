package experiments

import (
	"fmt"
	"strings"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/apps/memcached"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// ClientDemo exercises the hosted frontend's cluster client Ebb: it
// sets, then gets, a handful of keys through the ring and reports where
// each landed and what every backend served.
func ClientDemo() string {
	cl := cluster.NewCluster(4, cluster.Options{})
	front := cl.Sys.Frontend()
	cli := cluster.NewClientWithOptions(cl, front, cluster.ClientOptions{})

	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	fetched := map[string]string{}
	front.Spawn(func(c *event.Ctx) {
		for _, key := range keys {
			cli.Set(c, []byte(key), []byte("value-of-"+key), 0, func(c *event.Ctx, r cluster.Response) {
				cli.Get(c, []byte(key), func(c *event.Ctx, r cluster.Response) {
					fetched[key] = string(r.Value)
				})
			})
		}
	})
	cl.Sys.K.RunUntil(2 * sim.Second)

	var b strings.Builder
	fmt.Fprintf(&b, "Frontend client Ebb (id %d) across %d backends:\n", cli.Id(), len(cl.Backends))
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-8s -> backend %d, got %q\n", k, cl.Ring.Lookup([]byte(k)), fetched[k])
	}
	for i, be := range cl.Backends {
		fmt.Fprintf(&b, "  backend %d: %d keys, %d requests served\n", i, be.Srv.Store.Len(), be.Srv.Requests)
	}
	return b.String()
}

// TextSession drives a scripted ASCII session against one backend of a
// live sharded cluster, over the simulated network, and reports each
// request alongside the exact bytes the server answered.
func TextSession() string {
	cl := cluster.NewCluster(3, cluster.Options{})
	gen := cl.AddLoadGenerator(2)

	steps := []string{
		"version\r\n",
		"set greeting 7 0 13\r\nHello, EbbRT!\r\n",
		"get greeting\r\n",
		"gets greeting\r\n",
		"set quiet 0 0 2 noreply\r\nhi\r\nget quiet\r\n",
		"delete quiet noreply\r\nget quiet\r\n",
		"add greeting 0 0 4\r\nlate\r\n",
		"replace greeting 7 0 14\r\nHello, update!\r\n",
		"get greeting missing-key\r\n",
		"delete greeting\r\n",
		"get greeting\r\n",
		"quit\r\n",
	}

	// The session talks to whichever backend owns "greeting"; any
	// backend would serve - each speaks both protocols on the standard
	// port.
	target := cl.Ring.Lookup([]byte("greeting"))
	ip := cl.Backends[target].Node.IP()

	got := make([]string, len(steps))
	step := 0
	var conn appnet.Conn
	k := cl.Sys.K
	var sendNext func(c *event.Ctx)
	sendNext = func(c *event.Ctx) {
		if step >= len(steps) || conn == nil {
			return
		}
		conn.Send(c, iobuf.Wrap([]byte(steps[step])))
		// Give the exchange a round trip, then advance to the next step so
		// each step's responses land in its own slot.
		k.After(2*sim.Millisecond, func() {
			step++
			gen.Spawn(sendNext)
		})
	}
	gen.Spawn(func(c *event.Ctx) {
		gen.Runtime.Dial(c, ip, memcached.Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, _ appnet.Conn, payload *iobuf.IOBuf) {
				idx := min(step, len(got)-1)
				got[idx] += string(payload.CopyOut())
			},
		}, func(c *event.Ctx, cn appnet.Conn) {
			conn = cn
			sendNext(c)
		})
	})
	k.RunUntil(sim.Time(len(steps)+5) * 2 * sim.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "Text session against backend %d of the %d-backend cluster:\n", target, len(cl.Backends))
	for i, s := range steps {
		fmt.Fprintf(&b, "  >> %q\n", s)
		if got[i] != "" {
			fmt.Fprintf(&b, "  << %q\n", got[i])
		} else {
			b.WriteString("  << (no reply)\n")
		}
	}
	return b.String()
}
