package experiments

import (
	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/cluster"
	"ebbrt/internal/event"
	"ebbrt/internal/load"
	"ebbrt/internal/sim"
)

// Shared by the experiments. Every workload, arrival process and
// random fault draws from seed. The cluster experiments drive load
// through hosted frontends' client Ebbs; a frontend gets clientCores
// cores unless the experiment sizes it (it is the client, not a
// bottleneck under study), and load runs warmup before measurement.
// The failure experiments kill or decommission backend victim, bound
// one replica operation at the client to replicaTimeout so reads fail
// over before the health monitor evicts, and report their timeline in
// bucket-wide slots.
const (
	seed           = 42
	clientCores    = 4
	warmup         = 10 * sim.Millisecond
	victim         = 0
	replicaTimeout = 4 * sim.Millisecond
	bucket         = 2 * sim.Millisecond
)

// clusterRun is one cluster experiment's booted deployment: the cluster
// and one client Ebb per hosted frontend.
type clusterRun struct {
	cl   *cluster.Cluster
	clis []*cluster.Client
}

// bootCluster boots backends native backends and frontends hosted
// frontends shaped by opt, then a client Ebb under copt on each
// frontend.
func bootCluster(backends, frontends int, opt cluster.Options, copt cluster.ClientOptions) clusterRun {
	orDefault(&opt.FrontendCores, clientCores)
	r := clusterRun{cl: cluster.NewCluster(backends, opt)}
	for len(r.cl.Frontends) < frontends {
		r.cl.AddFrontend(opt.FrontendCores)
	}
	for _, front := range r.cl.Frontends[:frontends] {
		r.clis = append(r.clis, cluster.NewClientWithOptions(r.cl, front, copt))
	}
	return r
}

// etcOver is the ETC workload over a population of keySpace keys.
func etcOver(keySpace int) load.ETCConfig {
	etc := load.DefaultETC()
	etc.KeySpace = keySpace
	return etc
}

// population rebuilds the key population a run over etc draws from.
func population(etc load.ETCConfig) *load.Workload { return load.NewWorkload(etc, seed) }

// drive offers cfg's load over etc through the frontends' clients, one
// load source per frontend, from seed, after warmup unless cfg sets its
// own. kvs, when given, stand in for the clients (one per frontend).
func (r clusterRun) drive(etc load.ETCConfig, cfg load.Config, kvs ...load.KVClient) load.Result {
	if kvs == nil {
		for _, cli := range r.clis {
			kvs = append(kvs, clusterKV{cli: cli})
		}
	}
	rts := make([]appnet.Runtime, len(kvs))
	for i := range kvs {
		rts[i] = r.cl.Frontends[i].Runtime
	}
	cfg.Seed, cfg.ETC = seed, etc
	if cfg.Warmup == 0 {
		cfg.Warmup = warmup
	}
	return load.Run(load.KV(rts, kvs), cfg)
}

// clusterKV adapts the replicated client Ebb to the load generator's
// KVClient interface.
type clusterKV struct{ cli *cluster.Client }

func outcome(r cluster.Response) load.OpOutcome {
	switch {
	case r.OK():
		return load.OK
	case r.NetworkError():
		return load.NetErr
	default:
		return load.Miss
	}
}

func (a clusterKV) Get(c *event.Ctx, key []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.Get(c, key, func(c *event.Ctx, r cluster.Response) { done(c, outcome(r)) })
}

func (a clusterKV) Set(c *event.Ctx, key, value []byte, done func(c *event.Ctx, o load.OpOutcome)) {
	a.cli.Set(c, key, value, 0, func(c *event.Ctx, r cluster.Response) { done(c, outcome(r)) })
}

func (a clusterKV) GetMulti(c *event.Ctx, keys [][]byte, done func(c *event.Ctx, outs []load.OpOutcome)) {
	a.cli.GetMulti(c, keys, func(c *event.Ctx, rs []cluster.Response) {
		outs := make([]load.OpOutcome, len(rs))
		for i, r := range rs {
			outs[i] = outcome(r)
		}
		done(c, outs)
	})
}

// orDefault resolves an unset option - zero or negative - to its
// default.
func orDefault[T ~int | ~int64 | ~float64](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}
