package flighttrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rocesim/internal/packet"
	"rocesim/internal/simtime"
	"rocesim/internal/telemetry"
)

// Record is one flight-recorder entry: the scalar fields of a trace
// event, copied at emission time (the live packet cannot be retained).
type Record struct {
	Seq     uint64 // global arrival order, for stable merges
	At      simtime.Time
	Type    telemetry.EventType
	Node    string
	Port    int
	Pri     int
	Flow    packet.FlowKey
	UID     uint64
	PSN     uint32
	Op      string // RoCE opcode, "" for non-RoCE frames
	WireLen int
	Reason  string
}

type ring struct {
	buf  []Record
	next int
	full bool
}

func (r *ring) push(rec Record) {
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the ring's records oldest-first.
func (r *ring) snapshot() []Record {
	if !r.full {
		return append([]Record(nil), r.buf[:r.next]...)
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Recorder is the flight recorder: a bounded ring of recent trace
// events per device. It runs continuously at fixed memory cost and is
// dumped after the fact — when an SLO alert fires, or when a chaos cell
// ends unrecovered — to show what the fabric was doing in the moments
// before an incident.
type Recorder struct {
	perDevice int
	seq       uint64
	rings     map[string]*ring
	subs      []*telemetry.Subscription
}

// NewRecorder returns a recorder keeping the last perDevice events for
// each device.
func NewRecorder(perDevice int) *Recorder {
	if perDevice <= 0 {
		perDevice = 1024
	}
	return &Recorder{perDevice: perDevice, rings: make(map[string]*ring)}
}

// Attach subscribes the recorder for the given event mask (use
// telemetry.EvAll for everything). Call once per trace bus — a sharded
// simulation has one bus per member kernel (Kernel.TraceBuses) and
// devices emit on their own shard's bus. Returns the recorder for
// chaining.
func (r *Recorder) Attach(bus *telemetry.TraceBus, mask telemetry.EventMask) *Recorder {
	r.subs = append(r.subs, bus.Subscribe(mask, nil, r.record))
	return r
}

// Close unsubscribes from every attached bus.
func (r *Recorder) Close() {
	for _, sub := range r.subs {
		sub.Close()
	}
	r.subs = nil
}

func (r *Recorder) record(ev telemetry.Event) {
	rec := Record{
		Seq: r.seq, At: ev.At, Type: ev.Type,
		Node: ev.Node, Port: ev.Port, Pri: ev.Pri,
		Flow: ev.FlowKey(), Reason: ev.Reason,
	}
	r.seq++
	if p := ev.Pkt; p != nil {
		rec.UID = p.UID
		rec.WireLen = p.WireLen()
		if p.BTH != nil {
			rec.PSN = p.BTH.PSN
			rec.Op = p.BTH.Opcode.String()
		}
	}
	rg := r.rings[ev.Node]
	if rg == nil {
		rg = &ring{buf: make([]Record, r.perDevice)}
		r.rings[ev.Node] = rg
	}
	rg.push(rec)
}

// Tail returns the most recent n records retained for one device,
// oldest-first. It returns fewer (possibly zero) records when the device
// has emitted fewer, or is unknown.
func (r *Recorder) Tail(node string, n int) []Record {
	rg := r.rings[node]
	if rg == nil || n <= 0 {
		return nil
	}
	all := rg.snapshot()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Devices returns the recorded device names, sorted.
func (r *Recorder) Devices() []string {
	out := make([]string, 0, len(r.rings))
	for name := range r.rings {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every retained record across all devices, merged in
// global arrival order.
func (r *Recorder) Snapshot() []Record {
	var out []Record
	for _, name := range r.Devices() {
		out = append(out, r.rings[name].snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// CanonicalSnapshot returns every retained record merged in canonical
// (At, Node, per-device order) order. Unlike Snapshot's global arrival
// order — which in a sharded run depends on the shard-by-shard window
// execution order — the canonical order is a pure function of each
// device's own event stream, so shards=1 and shards=N renderings are
// byte-identical.
func (r *Recorder) CanonicalSnapshot() []Record {
	out := r.Snapshot()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteText dumps the merged timeline as one line per event.
func (r *Recorder) WriteText(w io.Writer) error {
	return r.writeText(w, r.Snapshot())
}

// WriteCanonicalText dumps the timeline in canonical partition-independent
// order (see CanonicalSnapshot).
func (r *Recorder) WriteCanonicalText(w io.Writer) error {
	return r.writeText(w, r.CanonicalSnapshot())
}

func (r *Recorder) writeText(w io.Writer, recs []Record) error {
	for _, rec := range recs {
		line := fmt.Sprintf("%-12v %-11s %-16s port=%-2d pri=%-2d",
			rec.At, rec.Type, rec.Node, rec.Port, rec.Pri)
		if rec.Flow != (packet.FlowKey{}) {
			line += fmt.Sprintf(" flow=%s uid=%d", FlowString(rec.Flow), rec.UID)
		}
		if rec.Op != "" {
			line += fmt.Sprintf(" op=%s psn=%d", rec.Op, rec.PSN)
		}
		if rec.WireLen > 0 {
			line += fmt.Sprintf(" len=%d", rec.WireLen)
		}
		if rec.Reason != "" {
			line += fmt.Sprintf(" reason=%s", rec.Reason)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto). Struct-based marshalling keeps field
// order fixed and map args are key-sorted by encoding/json, so the
// output is byte-identical across same-seed runs.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(t simtime.Time) float64 { return float64(t) / 1e6 }

// WriteChromeTrace exports the retained records as Chrome trace-event
// JSON. Each device is a process; rows (threads) are per-priority
// packet lanes and per-(port,priority) PFC lanes. Matched
// enqueue→dequeue and XOFF→XON pairs become complete ("X") events;
// drops and unmatched edges become instants.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	recs := r.Snapshot()
	devices := r.Devices()
	pid := make(map[string]int, len(devices))
	var out []chromeEvent
	for i, name := range devices {
		pid[name] = i + 1
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]string{"name": name},
		})
	}

	// Lane layout inside one device: packet lanes by priority, PFC
	// lanes by (port, priority) above 100.
	pktLane := func(pri int) int {
		if pri < 0 {
			return 0
		}
		return 1 + pri
	}
	pfcLane := func(port, pri int) int { return 100 + port*8 + pri }

	type openKey struct {
		node string
		uid  uint64
		flow packet.FlowKey
	}
	openPkt := make(map[openKey]Record)
	openPfc := make(map[pauseID]Record)

	name := func(rec Record) string {
		if rec.Op != "" {
			return fmt.Sprintf("%s psn=%d", rec.Op, rec.PSN)
		}
		if rec.Flow != (packet.FlowKey{}) {
			return FlowString(rec.Flow)
		}
		return rec.Type.String()
	}
	args := func(rec Record) map[string]string {
		a := map[string]string{}
		if rec.Flow != (packet.FlowKey{}) {
			a["flow"] = FlowString(rec.Flow)
			a["uid"] = fmt.Sprintf("%d", rec.UID)
		}
		if rec.WireLen > 0 {
			a["wire_len"] = fmt.Sprintf("%d", rec.WireLen)
		}
		if rec.Reason != "" {
			a["reason"] = rec.Reason
		}
		if len(a) == 0 {
			return nil
		}
		return a
	}

	for _, rec := range recs {
		switch rec.Type {
		case telemetry.EvInject, telemetry.EvEnqueue:
			openPkt[openKey{rec.Node, rec.UID, rec.Flow}] = rec

		case telemetry.EvDequeue:
			k := openKey{rec.Node, rec.UID, rec.Flow}
			if enq, ok := openPkt[k]; ok {
				delete(openPkt, k)
				d := usec(rec.At) - usec(enq.At)
				out = append(out, chromeEvent{
					Name: name(enq), Ph: "X", Ts: usec(enq.At), Dur: &d,
					Pid: pid[rec.Node], Tid: pktLane(enq.Pri), Cat: "queue",
					Args: args(enq),
				})
			}

		case telemetry.EvDrop:
			out = append(out, chromeEvent{
				Name: "drop: " + rec.Reason, Ph: "i", Ts: usec(rec.At),
				Pid: pid[rec.Node], Tid: pktLane(rec.Pri), Cat: "drop", S: "t",
				Args: args(rec),
			})

		case telemetry.EvPauseXOFF:
			openPfc[pauseID{rec.Node, rec.Port, rec.Pri}] = rec

		case telemetry.EvPauseXON:
			k := pauseID{rec.Node, rec.Port, rec.Pri}
			if xoff, ok := openPfc[k]; ok {
				delete(openPfc, k)
				d := usec(rec.At) - usec(xoff.At)
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("pause port=%d pri=%d", rec.Port, rec.Pri),
					Ph:   "X", Ts: usec(xoff.At), Dur: &d,
					Pid: pid[rec.Node], Tid: pfcLane(rec.Port, rec.Pri), Cat: "pfc",
					Args: args(rec),
				})
			}

		case telemetry.EvECNMark, telemetry.EvCNP, telemetry.EvRetransmit:
			out = append(out, chromeEvent{
				Name: rec.Type.String(), Ph: "i", Ts: usec(rec.At),
				Pid: pid[rec.Node], Tid: pktLane(rec.Pri), Cat: "congestion", S: "t",
				Args: args(rec),
			})
		}
	}

	// Stable output order: events sorted by (ts, pid, tid, name);
	// metadata events first.
	meta, rest := out[:len(devices)], out[len(devices):]
	sort.SliceStable(rest, func(i, j int) bool {
		if rest[i].Ts != rest[j].Ts {
			return rest[i].Ts < rest[j].Ts
		}
		if rest[i].Pid != rest[j].Pid {
			return rest[i].Pid < rest[j].Pid
		}
		if rest[i].Tid != rest[j].Tid {
			return rest[i].Tid < rest[j].Tid
		}
		return rest[i].Name < rest[j].Name
	})
	trace := chromeTrace{TraceEvents: append(meta, rest...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}
