// Incident drill — the operations story of Sections 5 and 6: run a
// healthy monitored cluster, let one NIC go rogue (a PFC pause storm),
// watch the health plane page on it, and see the watchdogs contain the
// blast radius while the rest of the fleet keeps serving.
package main

import (
	"fmt"
	"strings"
	"time"

	"rocesim"
	"rocesim/internal/health"
	"rocesim/internal/simtime"
)

func main() {
	cl, err := rocesim.NewCluster(11, rocesim.Fig8())
	if err != nil {
		panic(err)
	}
	dep := cl.Deployment()
	k := cl.Kernel()

	// Background service traffic: six ToR-to-ToR pairs.
	for i := 0; i < 6; i++ {
		qp, _ := cl.ConnectRC(cl.Server(0, 0, i), cl.Server(0, 1, i), rocesim.ClassBulk)
		var pump func(time.Duration)
		pump = func(time.Duration) { qp.Send(1<<20, pump) }
		pump(0)
		pump(0)
	}
	// Traffic toward the soon-to-be-rogue server (its flows are what
	// back up through the fabric).
	rogue := cl.Server(0, 0, 10)
	for i := 6; i < 9; i++ {
		qp, _ := cl.ConnectRC(cl.Server(0, 1, i), rogue, rocesim.ClassBulk)
		var pump func(time.Duration)
		pump = func(time.Duration) { qp.Send(1<<20, pump) }
		pump(0)
	}

	// The health plane scrapes every device's pause_rx counter each
	// 10 ms. Its objective is the paper's storm threshold, 2000 pause
	// frames a second (20 per interval) at any device; the burn-rate
	// windows keep a one-interval congestion burst, such as the
	// cold-start incast, from paging. Each breach and clear is
	// announced on the kernel's bus as it happens.
	sc := health.NewScraper(k, health.ScrapeConfig{
		Interval: 10 * simtime.Millisecond,
		Filter:   func(key string) bool { return strings.HasSuffix(key, "/pause_rx") },
	})
	eng := health.NewEngine(k, sc)
	eng.Add(health.Objective{Name: "pause-storm", Bad: health.OverDelta(sc, "/pause_rx", 20)})
	k.OnAnnounce(func(v any) {
		if a, ok := v.(health.SLOAlert); ok {
			fmt.Printf("%-10s%s\n", "t="+a.At.String(), a)
		}
	})
	sc.Start()

	fmt.Println("t=0ms     cluster healthy, traffic flowing")
	cl.Run(100 * time.Millisecond)
	if !eng.EverBreached() {
		fmt.Println("t=100ms   monitoring: all quiet")
	}

	fmt.Println("t=100ms   !!! NIC on", rogue.NIC.Name(), "malfunctions: continuous pause frames")
	rogue.NIC.SetMalfunction(true)
	cl.Run(250 * time.Millisecond)

	if rogue.NIC.PauseDisabled() {
		fmt.Println("t=350ms   NIC watchdog tripped: pause generation disabled (server awaits repair)")
	}
	trips := 0
	for _, sw := range dep.Net.Switches() {
		trips += int(sw.C.WatchdogTrips.Value())
	}
	if trips > 0 {
		fmt.Printf("t=350ms   switch watchdogs tripped %d time(s): lossless mode cut for the rogue port\n", trips)
	} else {
		fmt.Println("t=350ms   switch watchdogs did not trip")
	}

	// Repair (the paper: reboot/reimage) and verify recovery.
	rogue.NIC.SetMalfunction(false)
	fmt.Println("t=350ms   server repaired")
	cl.Run(300 * time.Millisecond)
	if cl.FindDeadlock() == nil && !eng.Breached() {
		fmt.Println("t=650ms   no pause cycles, no objective in breach; fleet healthy")
	}
}
