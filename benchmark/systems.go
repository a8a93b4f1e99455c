package main

import (
	"errors"
	"fmt"
	"sync"

	"acep/internal/cluster"
	"acep/internal/engine"
	"acep/internal/event"
	"acep/internal/ha"
	"acep/internal/lease"
	"acep/internal/match"
	"acep/internal/multi"
	"acep/internal/shard"
)

// totalShards is the shard count of every sharded rung but shard.x1:
// 2 shards in one process, or 2 nodes of 1 shard.
const totalShards = 2

func noTeardown() error { return nil }

// buildEngine is the single-process adaptive engine with the model and
// policy of in.cfg.
func buildEngine(in *inputs, s *sink) (*system, error) {
	cfg := in.cfg
	cfg.OnMatch = s.onMatch
	eng, err := engine.New(in.pat, cfg)
	if err != nil {
		return nil, err
	}
	return &system{
		process:  eng.Process,
		finish:   func() error { eng.Finish(); return nil },
		teardown: noTeardown,
		metrics:  eng.Metrics,
	}, nil
}

// withModel returns buildEngine over a copy of the inputs that selects
// the evaluation model.
func withModel(m engine.Model) builder {
	return func(in *inputs, s *sink) (*system, error) {
		c := *in
		c.cfg.Model = m
		return buildEngine(&c, s)
	}
}

// buildMulti is one shared evaluator over the whole pattern set. The set
// is analyzed per pass: analysis is construction, not input.
func buildMulti(in *inputs, s *sink) (*system, error) {
	set, err := multi.Analyze(in.specs, in.w.Schema)
	if err != nil {
		return nil, err
	}
	ev, err := multi.NewEvaluator(set, multi.Options{OnMatch: s.deliver})
	if err != nil {
		return nil, err
	}
	return &system{
		process:  ev.Process,
		finish:   func() error { ev.Finish(); return nil },
		teardown: noTeardown,
		metrics: func() engine.Metrics {
			var m engine.Metrics
			for _, pm := range ev.Metrics() {
				m.Merge(pm.M)
			}
			return m
		},
	}, nil
}

// buildIndependent runs the pattern set the way a deployment without
// sharing would: one engine per pattern, each shown every event. The
// stream outlives the engines, so they keep pointers instead of copies.
func buildIndependent(in *inputs, s *sink) (*system, error) {
	engs := make([]*engine.Engine, len(in.specs))
	for i, sp := range in.specs {
		id := sp.ID
		cfg := sp.Config
		cfg.OnMatch = func(m *match.Match) { s.deliver(id, m) }
		cfg.ExternalEvents = true
		eng, err := engine.New(sp.Pattern, cfg)
		if err != nil {
			return nil, err
		}
		engs[i] = eng
	}
	return &system{
		process: func(ev *event.Event) {
			for _, e := range engs {
				e.Process(ev)
			}
		},
		finish: func() error {
			for _, e := range engs {
				e.Finish()
			}
			return nil
		},
		teardown: noTeardown,
		metrics: func() engine.Metrics {
			var m engine.Metrics
			for _, e := range engs {
				m.Merge(e.Metrics())
			}
			return m
		},
	}, nil
}

// buildShard is the single-process sharded engine, fed per event.
func buildShard(shards int) builder {
	return func(in *inputs, s *sink) (*system, error) {
		eng, err := shard.New(in.pat, in.cfg, shard.Options{
			Shards: shards, Batch: batch, KeyAttr: "key", Schema: in.w.Schema,
			OnMatch: s.onMatch, OnProgress: s.onProgress,
		})
		if err != nil {
			return nil, err
		}
		return &system{
			process:     eng.Process,
			finish:      func() error { eng.Finish(); return nil },
			teardown:    noTeardown,
			metrics:     eng.Metrics,
			hasProgress: true,
		}, nil
	}
}

// workers is a set of in-process worker nodes, one shard each, and the
// goroutines serving them.
type workers struct {
	listeners []*cluster.Listener
	wg        sync.WaitGroup
	mu        sync.Mutex
	errs      []error
}

func (ws *workers) fail(err error) {
	if err != nil {
		ws.mu.Lock()
		ws.errs = append(ws.errs, err)
		ws.mu.Unlock()
	}
}

func newNode(in *inputs) (*cluster.Node, error) {
	return cluster.NewNode(cluster.NodeConfig{
		Pattern: in.pat, Schema: in.w.Schema, Engine: in.cfg,
		Shards: 1, Batch: batch, KeyAttr: "key",
	})
}

// pipes starts totalShards nodes over in-process pipes and returns the
// ingress ends.
func (ws *workers) pipes(in *inputs) ([]cluster.Conn, error) {
	conns := make([]cluster.Conn, totalShards)
	for i := range conns {
		node, err := newNode(in)
		if err != nil {
			return nil, err
		}
		client, server := cluster.Pipe()
		conns[i] = client
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			ws.fail(node.Serve(server))
		}()
	}
	return conns, nil
}

// listen starts totalShards nodes on loopback TCP listeners, each
// serving every session dialled to it, and returns their addresses.
func (ws *workers) listen(in *inputs) ([]string, error) {
	addrs := make([]string, totalShards)
	for i := range addrs {
		node, err := newNode(in)
		if err != nil {
			return nil, err
		}
		l, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ws.listeners = append(ws.listeners, l)
		addrs[i] = l.Addr()
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			for {
				c, err := l.Accept()
				if err != nil {
					return // listener closed by stop
				}
				ws.wg.Add(1)
				go func() {
					defer ws.wg.Done()
					ws.fail(node.Serve(c))
				}()
			}
		}()
	}
	return addrs, nil
}

// dial connects an ingress to every listening node.
func dial(addrs []string) ([]cluster.Conn, error) {
	conns := make([]cluster.Conn, len(addrs))
	for i, a := range addrs {
		c, err := cluster.DialTCP(a)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

// stop closes the listeners, waits for every serving goroutine and
// reports what any of them failed with.
func (ws *workers) stop() error {
	for _, l := range ws.listeners {
		l.Close()
	}
	ws.wg.Wait()
	return errors.Join(ws.errs...)
}

// buildCluster is an ingress coordinator over totalShards one-shard
// nodes: over in-process pipes or loopback TCP, with or without the cut
// journal.
func buildCluster(tcp, journal bool) builder {
	return func(in *inputs, s *sink) (*system, error) {
		ws := &workers{}
		var conns []cluster.Conn
		var err error
		if tcp {
			var addrs []string
			if addrs, err = ws.listen(in); err == nil {
				conns, err = dial(addrs)
			}
		} else {
			conns, err = ws.pipes(in)
		}
		if err != nil {
			return nil, errors.Join(err, ws.stop())
		}
		opts := cluster.IngressOptions{
			Batch: batch, KeyAttr: "key", Schema: in.w.Schema,
			OnMatch: s.onMatch, OnProgress: s.onProgress,
		}
		if journal {
			opts.Recovery = &cluster.RecoveryConfig{}
		}
		ing, err := cluster.NewIngress(in.pat, conns, opts)
		if err != nil {
			return nil, errors.Join(err, ws.stop())
		}
		return &system{
			process:     ing.Process,
			finish:      ing.Finish,
			teardown:    ws.stop,
			metrics:     ing.Metrics,
			hasProgress: true,
		}, nil
	}
}

// buildHA is the replicated coordinator pair over totalShards TCP
// workers with its standby in this process, with or without the lease
// arbiter that gates emission.
func buildHA(leased bool) builder {
	return func(in *inputs, s *sink) (*system, error) {
		ws := &workers{}
		addrs, err := ws.listen(in)
		if err != nil {
			return nil, errors.Join(err, ws.stop())
		}
		cfg := ha.Config{
			Pattern: in.pat, Schema: in.w.Schema, KeyAttr: "key", Batch: batch,
			Workers: addrs, OnTagged: s.onTagged,
		}
		var arbiter *lease.Server
		if leased {
			arbiter = lease.New()
			if cfg.LeaseAddr, err = arbiter.ListenAndServe("127.0.0.1:0"); err != nil {
				return nil, errors.Join(err, ws.stop())
			}
		}
		stop := func() error {
			if arbiter != nil {
				arbiter.Close()
			}
			return ws.stop()
		}
		p, err := ha.New(cfg)
		if err != nil {
			return nil, errors.Join(err, stop())
		}
		return &system{
			process: p.Process,
			finish: func() error {
				if err := p.Finish(); err != nil {
					return err
				}
				if degraded, cause := p.Degraded(); degraded {
					return fmt.Errorf("pair degraded: %s", cause)
				}
				return nil
			},
			teardown: stop,
			metrics:  func() engine.Metrics { return p.Ingress().Metrics() },
		}, nil
	}
}
