// Package rocesim is a packet-level simulation library reproducing
// "RDMA over Commodity Ethernet at Scale" (Guo et al., SIGCOMM 2016): a
// deterministic discrete-event model of RoCEv2 NICs, DSCP-based PFC,
// DCQCN, shared-buffer Clos fabrics, and the safety mechanisms the paper
// introduces — go-back-N loss recovery, the ARP-incomplete drop rule
// that prevents PFC deadlock, and the NIC/switch PFC storm watchdogs —
// together with the monitoring systems the paper calls indispensable:
// Pingmesh and configuration drift detection here, counter scraping and
// SLO alerts through the health plane (internal/health) on the
// cluster's Kernel.
//
// # Quick start
//
//	cl, _ := rocesim.NewCluster(1, rocesim.Rack(4))
//	qp, _ := cl.ConnectRC(cl.Server(0, 0, 0), cl.Server(0, 0, 1), rocesim.ClassBulk)
//	qp.Send(4<<20, func(lat time.Duration) { fmt.Println("4MB in", lat) })
//	cl.Run(10 * time.Millisecond)
//
// Everything runs in simulated time: Run advances the virtual clock, and
// a cluster built from the same seed always produces identical results.
package rocesim

import (
	"io"
	"time"

	"rocesim/internal/core"
	"rocesim/internal/monitor"
	"rocesim/internal/pcap"
	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
	"rocesim/internal/topology"
	"rocesim/internal/transport"
	"rocesim/internal/workload"
)

// Traffic classes (the paper's two lossless RDMA classes and the lossy
// TCP class).
const (
	ClassRealTime = core.ClassRealTime
	ClassBulk     = core.ClassBulk
	ClassTCP      = core.ClassTCP
)

// Safety re-exports the Section 4 fix switchboard.
type Safety = core.Safety

// Recommended returns the paper's production safety configuration.
func Recommended() Safety { return core.Recommended() }

// Stage re-exports the Section 6.1 rollout ladder.
type Stage = core.Stage

// Deployment stages.
const (
	StageLab         = core.StageLab
	StageTestCluster = core.StageTestCluster
	StageToR         = core.StageToR
	StagePodset      = core.StagePodset
	StageSpine       = core.StageSpine
)

// PFCMode selects DSCP- or VLAN-based PFC.
type PFCMode = core.PFCMode

// PFC modes.
const (
	DSCPBased = core.DSCPBased
	VLANBased = core.VLANBased
)

// Server identifies one end host in the cluster.
type Server = topology.Server

// Topology constructors.

// Rack returns a single-ToR topology with n servers.
func Rack(n int) topology.Spec { return topology.RackSpec(n) }

// Fig7 returns the paper's two-podset throughput fabric with the given
// servers per ToR (24 in production; 8 participate in the experiment).
func Fig7(serversPerTor int) topology.Spec { return topology.Fig7Spec(serversPerTor) }

// Fig8 returns the paper's two-ToR latency testbed.
func Fig8() topology.Spec { return topology.Fig8Spec() }

// Option customizes a cluster.
type Option func(*core.Config)

// WithSafety overrides the safety switchboard.
func WithSafety(s Safety) Option { return func(c *core.Config) { c.Safety = s } }

// WithStage sets the rollout stage.
func WithStage(s Stage) Option { return func(c *core.Config) { c.Stage = s } }

// WithMode sets DSCP- or VLAN-based PFC.
func WithMode(m PFCMode) Option { return func(c *core.Config) { c.Mode = m } }

// WithAlpha sets the dynamic shared-buffer parameter on every switch.
func WithAlpha(a float64) Option { return func(c *core.Config) { c.Alpha = a } }

// Cluster is a simulated data center running RoCEv2.
type Cluster struct {
	kernel *sim.Kernel
	dep    *core.Deployment
}

// NewCluster builds a deterministic cluster from a seed and topology.
func NewCluster(seed int64, spec topology.Spec, opts ...Option) (*Cluster, error) {
	k := sim.NewKernel(seed)
	cfg := core.DefaultConfig(spec)
	for _, o := range opts {
		o(&cfg)
	}
	d, err := core.New(k, cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{kernel: k, dep: d}, nil
}

// Kernel exposes the simulation executive for advanced scheduling.
func (c *Cluster) Kernel() *sim.Kernel { return c.kernel }

// Deployment exposes the underlying deployment (switch/NIC access,
// drift checks, deadlock scans).
func (c *Cluster) Deployment() *core.Deployment { return c.dep }

// Server returns server s on ToR t of podset p.
func (c *Cluster) Server(p, t, s int) *Server { return c.dep.Net.Server(p, t, s) }

// Servers returns every server.
func (c *Cluster) Servers() []*Server { return c.dep.Net.Servers }

// Run advances simulated time by d.
func (c *Cluster) Run(d time.Duration) {
	c.kernel.RunUntil(c.kernel.Now().Add(simtime.FromStd(d)))
}

// Now returns the current simulated time since cluster creation.
func (c *Cluster) Now() time.Duration { return simtime.Duration(c.kernel.Now()).Std() }

// QP is a connected reliable-connection queue pair (the client half of a
// pair created by ConnectRC).
type QP struct {
	c      *Cluster
	local  *transport.QP
	remote *transport.QP
}

// ConnectRC establishes a reliable connection between two servers in the
// given traffic class, applying the cluster's safety configuration
// (recovery scheme, DCQCN, PFC mode).
func (c *Cluster) ConnectRC(a, b *Server, class int) (*QP, error) {
	qa, qb := c.dep.Connect(a, b, class)
	return &QP{c: c, local: qa, remote: qb}, nil
}

// Send posts an RDMA SEND of size bytes; onDone (optional) fires with
// the completion latency when the message is acknowledged.
func (q *QP) Send(size int, onDone func(latency time.Duration)) {
	q.post(transport.OpSend, size, onDone)
}

// Write posts an RDMA WRITE.
func (q *QP) Write(size int, onDone func(latency time.Duration)) {
	q.post(transport.OpWrite, size, onDone)
}

// Read posts an RDMA READ of size bytes from the remote server.
func (q *QP) Read(size int, onDone func(latency time.Duration)) {
	q.post(transport.OpRead, size, onDone)
}

func (q *QP) post(kind transport.OpKind, size int, onDone func(time.Duration)) {
	var cb func(posted, completed simtime.Time)
	if onDone != nil {
		cb = func(posted, completed simtime.Time) { onDone(completed.Sub(posted).Std()) }
	}
	q.local.Post(kind, size, cb)
}

// OnReceive registers a handler for messages (SENDs and WRITEs) arriving
// at the remote end.
func (q *QP) OnReceive(fn func(size int)) {
	q.remote.OnMessage = func(_ transport.OpKind, size int) { fn(size) }
}

// Transport exposes the local low-level queue pair (statistics, manual
// posting).
func (q *QP) Transport() *transport.QP { return q.local }

// Remote exposes the remote low-level queue pair.
func (q *QP) Remote() *transport.QP { return q.remote }

// PingPong builds a request/response channel over this QP pair (used by
// services and Pingmesh-style probing).
func (q *QP) PingPong() workload.PingPong {
	return workload.NewRDMAPingPong(q.local, q.remote, q.c.kernel.Now)
}

// NewPingmesh creates an RDMA Pingmesh over the cluster with the paper's
// probe settings.
func (c *Cluster) NewPingmesh() *monitor.Pingmesh {
	return monitor.NewPingmesh(c.kernel, monitor.DefaultPingmesh())
}

// CheckDrift runs the configuration drift check.
func (c *Cluster) CheckDrift() []monitor.Drift { return c.dep.CheckDrift() }

// FindDeadlock scans for a PFC pause cycle and returns the switch names
// along it (nil when none).
func (c *Cluster) FindDeadlock() []string { return c.dep.FindDeadlock() }

// Metrics exposes the cluster's telemetry registry; Snapshot() it for a
// deterministic view of every device counter.
func (c *Cluster) Metrics() *telemetry.Registry { return c.kernel.Metrics() }

// Trace exposes the packet-lifecycle trace bus for custom subscribers.
func (c *Cluster) Trace() *telemetry.TraceBus { return c.kernel.Trace() }

// Capture streams every frame on a server's cable into w as a standard
// pcap (Wireshark-readable): the full Ethernet/IPv4/UDP/BTH stack plus
// PFC pause frames. It subscribes to the trace bus for the two dequeue
// points of the cable (ToR egress port and NIC egress) and returns the
// writer for frame counts.
func (c *Cluster) Capture(s *Server, w io.Writer) (*pcap.Writer, error) {
	pw, err := pcap.NewWriter(w)
	if err != nil {
		return nil, err
	}
	tap := &pcap.Tap{W: pw, Now: c.kernel.Now}
	torName, torPort, nicName := s.Tor.Name(), s.TorPort, s.NIC.Name()
	tap.SubscribeTrace(c.kernel.Trace(), func(ev *telemetry.Event) bool {
		return (ev.Node == torName && ev.Port == torPort) || ev.Node == nicName
	})
	return pw, nil
}
