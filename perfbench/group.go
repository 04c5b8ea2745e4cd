package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"bftfast/bft"
	"bftfast/internal/core"
	"bftfast/internal/norep"
	"bftfast/internal/obs"
	"bftfast/internal/simpleservice"
	"bftfast/internal/transport"
)

const (
	groupN      = 4   // replicas, f = 1
	hostClients = 2   // closed-loop callers, one per core of the reference box
	clientBase  = 100 // first client node id
)

// replicaHandle is what the benchmark reads from a running replica.
type replicaHandle interface {
	Stats() core.Counters
	Close()
}

// clientHandle is one closed-loop caller's connection to the service.
type clientHandle interface {
	Invoke(ctx context.Context, op []byte, readOnly bool) ([]byte, error)
	Close()
}

// hostGroup is a running set of nodes over UDP loopback in this process.
type hostGroup struct {
	udp      *transport.UDPNetwork
	replicas []replicaHandle
	clients  []clientHandle
	layers   *hostLayers // nil unless traced
}

// hostLayers holds the layer meters of a traced group, indexed like the
// node ids: replicas 0..groupN-1, then the clients.
type hostLayers struct {
	net      *meteredNetwork
	ids      []int
	nodes    []*transport.Node
	crypto   []*cryptoMeter
	services []*meteredService // replicas only
	phases   []*obs.Registry   // replicas only
}

func nodeIDs(clients int) []int {
	ids := make([]int, 0, groupN+clients)
	for i := 0; i < groupN; i++ {
		ids = append(ids, i)
	}
	for c := 0; c < clients; c++ {
		ids = append(ids, clientBase+c)
	}
	return ids
}

// Fixed ports the repository's own tests and demo bind (48311-48357 in the
// transport, hostbench and bft tests, 47700 and up for bft-demo) lie in
// this band; loopbackAddrs never hands one out, so a benchmark running
// beside those tests cannot take their ports.
const reservedLo, reservedHi = 47000, 49999

// loopbackAddrs picks a free UDP loopback port per node id, outside the
// reserved band. All probe sockets stay open until every port is chosen,
// so the kernel never offers one twice; they are closed before the network
// binds the ports.
func loopbackAddrs(ids []int) (map[int]string, error) {
	addrs := make(map[int]string, len(ids))
	var conns []*net.UDPConn
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for _, id := range ids {
		for {
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, fmt.Errorf("picking a port for node %d: %w", id, err)
			}
			conns = append(conns, c)
			if port := c.LocalAddr().(*net.UDPAddr).Port; port < reservedLo || port > reservedHi {
				addrs[id] = c.LocalAddr().String()
				break
			}
		}
	}
	return addrs, nil
}

// startGroup starts groupN replicas of newService and hostClients clients.
// Untraced, it uses bft.StartReplica and bft.StartClient, the deployed
// path. Traced, it calls the constructors those functions call, with the
// layer meters in place.
func startGroup(newService func() core.StateMachine, seed int64, traced bool) (*hostGroup, error) {
	ids := nodeIDs(hostClients)
	addrs, err := loopbackAddrs(ids)
	if err != nil {
		return nil, err
	}
	udp, err := bft.NewUDPNetwork(addrs)
	if err != nil {
		return nil, err
	}
	rings := bft.NewKeyrings(ids)
	if err := bft.Provision(rand.New(rand.NewSource(seed)), rings); err != nil {
		udp.Close()
		return nil, fmt.Errorf("provisioning keys: %w", err)
	}
	g := &hostGroup{udp: udp}
	if traced {
		g.layers = &hostLayers{net: newMeteredNetwork(udp, ids), ids: ids}
	}
	for i := 0; i < groupN; i++ {
		r, err := g.startReplica(bft.DefaultConfig(groupN, i), newService(), rings[i])
		if err != nil {
			g.close()
			return nil, fmt.Errorf("starting replica %d: %w", i, err)
		}
		g.replicas = append(g.replicas, r)
	}
	for c := 0; c < hostClients; c++ {
		cl, err := g.startClient(bft.NewClientConfig(groupN, clientBase+c), rings[groupN+c])
		if err != nil {
			g.close()
			return nil, fmt.Errorf("starting client %d: %w", clientBase+c, err)
		}
		g.clients = append(g.clients, cl)
	}
	return g, nil
}

func (g *hostGroup) startReplica(cfg core.Config, sm core.StateMachine, keys *bft.Keyring) (replicaHandle, error) {
	l := g.layers
	if l == nil {
		return bft.StartReplica(cfg, sm, keys, g.udp)
	}
	nm := l.net.nodes[cfg.Self]
	reg := obs.NewRegistry()
	cfg.Phases = obs.NewPhaseTracker(reg, "phase.")
	svc := &meteredService{StateMachine: sm, node: nm}
	cm := &cryptoMeter{}
	engine, err := core.NewReplica(cfg, svc, keys, cm, nil)
	if err != nil {
		return nil, err
	}
	node, err := transport.Start(cfg.Self, meteredHandler{Handler: engine, m: nm}, l.net)
	if err != nil {
		return nil, err
	}
	l.nodes = append(l.nodes, node)
	l.crypto = append(l.crypto, cm)
	l.services = append(l.services, svc)
	l.phases = append(l.phases, reg)
	return &tracedReplica{engine: engine, node: node}, nil
}

func (g *hostGroup) startClient(cfg core.ClientConfig, keys *bft.Keyring) (clientHandle, error) {
	l := g.layers
	if l == nil {
		return bft.StartClient(cfg, keys, g.udp)
	}
	cm := &cryptoMeter{}
	engine, err := core.NewClient(cfg, keys, cm)
	if err != nil {
		return nil, err
	}
	node, err := transport.Start(cfg.Self, meteredHandler{Handler: engine, m: l.net.nodes[cfg.Self]}, l.net)
	if err != nil {
		return nil, err
	}
	l.nodes = append(l.nodes, node)
	l.crypto = append(l.crypto, cm)
	return &tracedClient{engine: engine, node: node}, nil
}

// close stops clients, then replicas, then the sockets, and waits for
// every reader goroutine to exit.
func (g *hostGroup) close() {
	for _, c := range g.clients {
		c.Close()
	}
	for _, r := range g.replicas {
		r.Close()
	}
	g.udp.Close()
}

// onLoop runs fn on the node's event loop and waits for it, giving up if
// the node stops first.
func onLoop(n *transport.Node, fn func()) {
	done := make(chan struct{})
	if n.Do(func() { fn(); close(done) }) != nil {
		return
	}
	select {
	case <-done:
	case <-n.Done():
	}
}

// tracedReplica mirrors bft.Replica for a group built from core and
// transport directly.
type tracedReplica struct {
	engine *core.Replica
	node   *transport.Node
}

func (r *tracedReplica) Stats() core.Counters {
	var out core.Counters
	onLoop(r.node, func() { out = r.engine.Stats() })
	return out
}

func (r *tracedReplica) Close() { r.node.Close() }

// tracedClient mirrors bft.Client.Invoke for a client built from core and
// transport directly.
type tracedClient struct {
	engine *core.Client
	node   *transport.Node
}

func (c *tracedClient) Invoke(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	ch := make(chan []byte, 1)
	if err := c.node.Do(func() {
		c.engine.Submit(op, readOnly, func(result []byte) { ch <- result })
	}); err != nil {
		return nil, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *tracedClient) Close() { c.node.Close() }

func (c *tracedClient) stats() core.ClientStats {
	var out core.ClientStats
	onLoop(c.node, func() { out = c.engine.Stats() })
	return out
}

// startNorep starts the unreplicated reference: one norep server running
// the null service and hostClients clients, over UDP loopback.
func startNorep() (*hostGroup, error) {
	ids := []int{0}
	for c := 0; c < hostClients; c++ {
		ids = append(ids, clientBase+c)
	}
	addrs, err := loopbackAddrs(ids)
	if err != nil {
		return nil, err
	}
	udp, err := bft.NewUDPNetwork(addrs)
	if err != nil {
		return nil, err
	}
	g := &hostGroup{udp: udp}
	server, err := transport.Start(0, norep.NewServer(simpleservice.Service{}), udp)
	if err != nil {
		g.close()
		return nil, fmt.Errorf("starting the norep server: %w", err)
	}
	g.replicas = append(g.replicas, &norepServer{server})
	for c := 0; c < hostClients; c++ {
		engine := norep.NewClient(clientBase+c, 0, norepGiveUp)
		node, err := transport.Start(clientBase+c, engine, udp)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("starting norep client %d: %w", clientBase+c, err)
		}
		g.clients = append(g.clients, &norepClient{engine: engine, node: node})
	}
	return g, nil
}

// norepGiveUp is how long a norep client waits for a reply before
// counting the request lost (norep never retransmits).
const norepGiveUp = 500 * time.Millisecond

// errLost reports a norep request that got no reply before norepGiveUp.
var errLost = errors.New("request lost")

type norepServer struct{ node *transport.Node }

func (s *norepServer) Stats() core.Counters { return core.Counters{} }
func (s *norepServer) Close()               { s.node.Close() }

type norepClient struct {
	engine *norep.Client
	node   *transport.Node
}

func (c *norepClient) Invoke(ctx context.Context, op []byte, _ bool) ([]byte, error) {
	type outcome struct {
		res  []byte
		lost bool
	}
	ch := make(chan outcome, 1)
	if err := c.node.Do(func() {
		c.engine.Submit(op, func(res []byte, lost bool) { ch <- outcome{res, lost} })
	}); err != nil {
		return nil, err
	}
	select {
	case o := <-ch:
		if o.lost {
			return nil, errLost
		}
		return o.res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *norepClient) Close() { c.node.Close() }
