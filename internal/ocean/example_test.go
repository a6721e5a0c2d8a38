package ocean_test

import (
	"fmt"

	"vab/internal/ocean"
)

// Example evaluates the acoustic environment terms that govern a VAB link
// in the river preset: transmission loss, ambient noise, and the multipath
// structure of the shallow waveguide.
func Example() {
	env := ocean.CharlesRiver()
	const fc = 18.5e3

	fmt.Printf("sound speed: %.0f m/s\n", env.MeanSoundSpeed())
	fmt.Printf("absorption:  %.2f dB/km\n", env.AbsorptionMid(fc))
	fmt.Printf("TL at 300 m: %.1f dB\n", env.TransmissionLoss(fc, 300))
	fmt.Printf("noise in a 500 Hz bin: %.1f dB re uPa\n", env.NoiseLevel(fc, 500))

	arr := env.Multipath(ocean.Geometry{SourceDepth: 1.6, ReceiverDepth: 2.4, Range: 100},
		ocean.DefaultMultipathConfig(fc))
	fmt.Printf("arrivals at 100 m: %d (delay spread %.1f ms)\n",
		len(arr), ocean.DelaySpread(arr)*1e3)
	// Output:
	// sound speed: 1466 m/s
	// absorption:  0.12 dB/km
	// TL at 300 m: 37.2 dB
	// noise in a 500 Hz bin: 61.9 dB re uPa
	// arrivals at 100 m: 10 (delay spread 0.2 ms)
}

// ExampleTraceRay launches a ray along the deep-ocean SOFAR axis: the Munk
// profile traps it between its turning depths.
func ExampleTraceRay() {
	m := ocean.CanonicalMunk()
	path, err := ocean.TraceRay(m, ocean.MunkAxisDepth, 0.08, 60e3, 50, 5000)
	if err != nil {
		panic(err)
	}
	minZ, maxZ := 1e9, 0.0
	for _, pt := range path {
		if pt.Depth < minZ {
			minZ = pt.Depth
		}
		if pt.Depth > maxZ {
			maxZ = pt.Depth
		}
	}
	fmt.Printf("trapped between %.0f m and %.0f m (axis at %.0f m)\n", minZ, maxZ, ocean.MunkAxisDepth)
	// Output:
	// trapped between 775 m and 2017 m (axis at 1300 m)
}
