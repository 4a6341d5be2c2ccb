package workload

import (
	"math/rand"

	"rocesim/internal/sim"
	"rocesim/internal/simtime"
	"rocesim/internal/transport"
)

// ReplicationConfig shapes a cloud-storage write tenant: each operation
// fans one object out to every replica (3-way replication in the
// paper's Section 2 storage workload) and completes when the slowest
// replica acknowledges. Every RepairEvery-th operation additionally
// runs a read-repair: fetch the object back from one replica, then
// rewrite it to another — the background traffic that keeps storage
// tenants chatty in both directions.
type ReplicationConfig struct {
	// ObjectBytes is the replicated object size.
	ObjectBytes int
	// Interval is the mean think time between operations (exponential
	// arrivals). 0 issues back-to-back writes.
	Interval simtime.Duration
	// RepairEvery triggers a read-repair after every Nth write; 0
	// disables repair traffic.
	RepairEvery int
}

// DefaultReplication returns a 1 MB, 3-way-write tenant with a repair
// every eighth operation.
func DefaultReplication() ReplicationConfig {
	return ReplicationConfig{
		ObjectBytes: 1 << 20,
		Interval:    500 * simtime.Microsecond,
		RepairEvery: 8,
	}
}

// Replication drives the write fan-out from one client. Writes[i] are
// requester QPs from the client toward each replica; read-repair
// fetches ride the same QPs as RDMA READs.
type Replication struct {
	Writes []*transport.QP
	// OnOp observes every completed write fan-out with its
	// slowest-replica completion time.
	OnOp func(op int, bytes int, elapsed simtime.Duration)
	// Ops counts completed write operations.
	Ops uint64

	k       *sim.Kernel
	cfg     ReplicationConfig
	rng     *rand.Rand
	op      int
	stopped bool
}

// NewReplication builds the driver. name seeds the arrival process so
// distinct clients desynchronize.
func NewReplication(k *sim.Kernel, name string, cfg ReplicationConfig, writes []*transport.QP) *Replication {
	return &Replication{
		Writes: writes,
		k:      k, cfg: cfg, rng: k.Rand("replication/" + name),
	}
}

// Start begins issuing operations.
func (r *Replication) Start() { r.scheduleNext() }

// Stop ends the operation stream after in-flight work drains.
func (r *Replication) Stop() { r.stopped = true }

func (r *Replication) scheduleNext() {
	if r.stopped {
		return
	}
	wait := simtime.Duration(0)
	if r.cfg.Interval > 0 {
		wait = simtime.Duration(r.rng.ExpFloat64() * float64(r.cfg.Interval))
	}
	r.k.After(wait, func() {
		if r.stopped {
			return
		}
		r.issue()
	})
}

func (r *Replication) issue() {
	op := r.op
	r.op++
	start := r.k.Now()
	left := len(r.Writes)
	for _, q := range r.Writes {
		q.Post(transport.OpWrite, r.cfg.ObjectBytes, func(_, _ simtime.Time) {
			left--
			if left != 0 {
				return
			}
			r.Ops++
			if r.OnOp != nil {
				r.OnOp(op, r.cfg.ObjectBytes, r.k.Now().Sub(start))
			}
			if r.cfg.RepairEvery > 0 && (op+1)%r.cfg.RepairEvery == 0 {
				r.repair(op)
			} else {
				r.scheduleNext()
			}
		})
	}
}

// repair fetches the object back from one replica (an RDMA READ,
// round-robin across the set) and rewrites it to the next replica,
// then resumes the write stream.
func (r *Replication) repair(op int) {
	src := r.Writes[op%len(r.Writes)]
	dst := r.Writes[(op+1)%len(r.Writes)]
	src.Post(transport.OpRead, r.cfg.ObjectBytes, func(_, _ simtime.Time) {
		dst.Post(transport.OpWrite, r.cfg.ObjectBytes, func(_, _ simtime.Time) {
			r.scheduleNext()
		})
	})
}
