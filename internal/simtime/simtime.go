// Package simtime defines the simulated time base and the rate/size
// arithmetic used throughout the simulator.
//
// Simulated time is an integer count of picoseconds. At 40 Gb/s one bit
// takes 25 ps on the wire, so picosecond resolution represents every
// serialization and propagation delay in the paper's fabrics exactly,
// with no rounding drift. A signed 64-bit picosecond counter covers about
// 106 days of simulated time, far beyond any experiment here.
package simtime

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is an absolute simulation timestamp in picoseconds since the start
// of the run. The zero value is the beginning of the simulation.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Forever is a sentinel meaning "no deadline". It is far enough in the
// future that no experiment reaches it.
const Forever Time = 1<<63 - 1

// MaxDuration is the largest representable Duration (about 106 days).
// Rate arithmetic whose exact result lies beyond it saturates here.
const MaxDuration Duration = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats the timestamp with adaptive units.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// Std converts a simulated duration to a time.Duration. Sub-nanosecond
// precision is truncated.
func (d Duration) Std() time.Duration { return time.Duration(d/Nanosecond) * time.Nanosecond }

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

// String formats the duration with adaptive units.
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg, d = "-", -d
	}
	switch {
	case d >= Second:
		return fmt.Sprintf("%s%.6gs", neg, float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%s%.6gms", neg, float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%s%.6gus", neg, float64(d)/float64(Microsecond))
	case d >= Nanosecond:
		return fmt.Sprintf("%s%.6gns", neg, float64(d)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	}
}

// Rate is a data rate in bits per second.
type Rate int64

// Common rates used in the paper's fabrics.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// String formats the rate with adaptive units.
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", r/Gbps)
	case r >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.3gMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.3gKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// bitPicoseconds is picoseconds per second times bits per byte: the
// factor between bytes × picoseconds and bits × seconds.
const bitPicoseconds = 8 * uint64(Second)

// Transmission returns the time to serialize n bytes onto a link of rate r.
// It rounds up to the next picosecond so that back-to-back transmissions
// never overlap. A time beyond MaxDuration (1.2 MB at 1 b/s, 1.2 PB at
// 1 Gb/s) saturates at MaxDuration.
func (r Rate) Transmission(n int) Duration {
	if r <= 0 {
		panic("simtime: non-positive rate")
	}
	if n <= 0 {
		return 0
	}
	// bytes * 8 * ps_per_second / rate, rounded up, with a 128-bit
	// product: megabyte counts overflow 64 bits when scaled to picoseconds.
	hi, lo := bits.Mul64(uint64(n), bitPicoseconds)
	if hi >= uint64(r) {
		return MaxDuration // the quotient needs more than 64 bits
	}
	q, rem := bits.Div64(hi, lo, uint64(r))
	if q >= uint64(MaxDuration) {
		return MaxDuration
	}
	if rem > 0 {
		q++
	}
	return Duration(q)
}

// BytesIn returns how many whole bytes rate r delivers in duration d,
// saturating at math.MaxInt64.
func (r Rate) BytesIn(d Duration) int64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	// rate * ps / (8 * ps_per_second), with a 128-bit product.
	hi, lo := bits.Mul64(uint64(r), uint64(d))
	if hi >= bitPicoseconds {
		return math.MaxInt64 // the quotient needs more than 64 bits
	}
	q, _ := bits.Div64(hi, lo, bitPicoseconds)
	if q > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(q)
}

// Scale returns the rate multiplied by f, saturating at 1 bps minimum when
// f is positive. It is used by congestion controllers that keep fractional
// target rates.
func (r Rate) Scale(f float64) Rate {
	v := Rate(float64(r) * f)
	if f > 0 && v <= 0 {
		v = 1
	}
	return v
}

// PropagationDelay returns the speed-of-light-in-fiber propagation delay
// for a cable of the given length. The paper uses ~5 ns/m (2/3 c), the
// standard figure for both copper DAC and multimode fiber at these lengths.
func PropagationDelay(meters float64) Duration {
	return Duration(meters * 5 * float64(Nanosecond))
}

// Quantum is the IEEE 802.1Qbb pause quantum: the time to transmit 512 bits
// at the port's link rate. Pause durations in PFC frames are measured in
// these quanta.
func Quantum(r Rate) Duration { return r.Transmission(64) }
