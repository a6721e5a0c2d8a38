// Deepwater: where could underwater backscatter go next? This example uses
// the ray-tracing extension to visualize sound propagation in the canonical
// Munk deep-ocean profile — the SOFAR channel that traps shallow-angle rays
// and carries them for hundreds of kilometers — and contrasts the shallow
// coastal waveguide the paper's system operates in.
//
//	go run ./examples/deepwater
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"vab/internal/ocean"
)

func main() {
	m := ocean.CanonicalMunk()

	fmt.Println("Munk sound-speed profile (canonical):")
	for _, z := range []float64{0, 500, 1300, 2500, 4000, 5000} {
		c := m.SpeedAt(z)
		bar := strings.Repeat("·", int((c-1498)/1.2))
		fmt.Printf("  %5.0f m  %7.1f m/s  %s\n", z, c, bar)
	}
	fmt.Printf("  sound channel axis at %.0f m (minimum %.0f m/s)\n\n", ocean.MunkAxisDepth, ocean.MunkAxisSpeed)

	// Trace a fan of rays launched from the axis.
	fmt.Println("Ray fan from the SOFAR axis (80 km, '·' = ray sample):")
	const (
		rows, cols = 18, 72
		rangeMax   = 80e3
		depthMax   = 5000.0
	)
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for _, th := range []float64{-0.12, -0.06, 0.03, 0.09, 0.14} {
		path, err := ocean.TraceRay(m, ocean.MunkAxisDepth, th, rangeMax, 100, depthMax)
		if err != nil {
			log.Fatal(err)
		}
		for _, pt := range path {
			col := int(pt.Range / rangeMax * float64(cols-1))
			row := int(pt.Depth / depthMax * float64(rows-1))
			if row >= 0 && row < rows && col >= 0 && col < cols {
				grid[row][col] = '.'
			}
		}
	}
	axis := ocean.MunkAxisDepth
	axisRow := int(axis / depthMax * float64(rows-1))
	for r, line := range grid {
		mark := " "
		if r == axisRow {
			mark = "="
		}
		fmt.Printf("%5.0fm %s|%s|\n", float64(r)/float64(rows-1)*depthMax, mark, string(line))
	}
	fmt.Println("       (= sound channel axis: rays oscillate around it, never touching surface or bottom)")

	// Turning depths for a shallow launch.
	sh, dp := ocean.TurningDepths(m, ocean.MunkAxisDepth, 0.09, depthMax)
	fmt.Printf("\nray at ±%.0f mrad turns at %.0f m and %.0f m (Snell: c(z_t) = c_axis/cosθ = %.1f m/s)\n",
		0.09*1000, sh, dp, ocean.MunkAxisSpeed/math.Cos(0.09))

	fmt.Println("\nWhy this matters for backscatter: today's VAB operates in shallow")
	fmt.Println("iso-velocity waveguides (rivers, coasts). A deep-moored retrodirective")
	fmt.Println("node near the SOFAR axis would see trapped, low-loss propagation —")
	fmt.Println("the ray model above is the first substrate needed to study that.")
}
