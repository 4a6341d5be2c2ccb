package sim

import (
	"reflect"
	"testing"

	"rocesim/internal/simtime"
)

// TestObserverBandOrdering: observer events fire after every normal
// event of the same instant regardless of scheduling order, and keep
// their own scheduling order among themselves.
func TestObserverBandOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []string
	at := simtime.Time(10)
	k.AtObserve(at, func() { order = append(order, "O1") })
	k.At(at, func() { order = append(order, "A") })
	k.AtObserve(at, func() { order = append(order, "O2") })
	k.At(at, func() { order = append(order, "B") })
	// A later instant's normal event still fires after the earlier
	// instant's observers.
	k.At(at+1, func() { order = append(order, "C") })
	k.Run()
	want := []string{"A", "B", "O1", "O2", "C"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

// TestObserverSchedulesNormalNow: a normal event scheduled by an
// observer for the same instant preempts the remaining observers — the
// normal band always drains first.
func TestObserverSchedulesNormalNow(t *testing.T) {
	k := NewKernel(1)
	var order []string
	at := simtime.Time(5)
	k.AtObserve(at, func() {
		order = append(order, "O1")
		k.At(at, func() { order = append(order, "N") })
	})
	k.AtObserve(at, func() { order = append(order, "O2") })
	k.Run()
	want := []string{"O1", "N", "O2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

// TestObserverCancelAndRecycle: items recycled from the observer band,
// fired or dropped, shed the band bit for their next tenant.
func TestObserverCancelAndRecycle(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.AfterObserve(3, func() { fired = true })
	tm := k.NewTimer(func() { t.Error("stopped timer fired") })
	tm.Reset(3)
	tm.Stop()
	k.Run()
	if !fired {
		t.Fatal("observer event did not fire")
	}
	// The normal event and the timer reuse the two free-listed items,
	// the fired observer's and the dropped timer's: both must fire in the
	// normal band, before an observer scheduled after them.
	var order []string
	k.At(7, func() { order = append(order, "N") })
	tm = k.NewTimer(func() { order = append(order, "T") })
	tm.ResetAt(7)
	k.AtObserve(7, func() { order = append(order, "O") })
	k.Run()
	if !reflect.DeepEqual(order, []string{"N", "T", "O"}) {
		t.Fatalf("post-recycle order %v", order)
	}
}
