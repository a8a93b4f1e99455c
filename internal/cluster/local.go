package cluster

import "fmt"

// Spawn starts n in-process worker nodes, each built from nc and served
// behind a loopback Pipe — the transport a TCP deployment runs, without
// addresses to manage — and returns the ingress ends, ready for
// NewIngress. An in-process cluster differs from a remote one only in
// where its connections come from. onErr (optional) observes node-side
// session errors; transport failures surface at the ingress regardless.
func Spawn(n int, nc NodeConfig, onErr func(error)) ([]Conn, error) {
	conns := make([]Conn, n)
	for i := range conns {
		var err error
		if conns[i], err = spawn(nc, onErr); err != nil {
			for _, c := range conns[:i] {
				c.Close() // ends the node goroutine behind the pipe
			}
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return conns, nil
}

// SpawnStandbys is DialStandbys for in-process nodes: a
// RecoveryConfig.Standby supplier whose every call spawns one more node,
// at most limit of them. The standbys start bare — nc's Pattern and
// Schema are dropped, its KeyAttr still pins the key — and learn the
// pattern set, schema and key from the Assign frame and their shards
// from the Migrate handshake.
func SpawnStandbys(limit int, nc NodeConfig) func() (Conn, error) {
	nc.Pattern, nc.Schema = nil, nil
	spawned := 0
	return func() (Conn, error) {
		if spawned >= limit {
			return nil, fmt.Errorf("cluster: all %d in-process standbys used", limit)
		}
		spawned++
		return spawn(nc, nil)
	}
}

// spawn starts one in-process node behind a pipe and returns the
// ingress end.
func spawn(nc NodeConfig, onErr func(error)) (Conn, error) {
	node, err := NewNode(nc)
	if err != nil {
		return nil, err
	}
	client, server := Pipe()
	go func() {
		if err := node.Serve(server); err != nil && onErr != nil {
			onErr(err)
		}
	}()
	return client, nil
}
