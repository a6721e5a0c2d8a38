// Command guards is the fixture TestGuardsCatchTheirSeeds scans: each
// source-level guard must report exactly the declarations seeded for it
// in package lib.
package main

import "vab/lib"

func main() {
	// The literal that omits Scale leaves it at 0, its second value.
	sum := lib.Run(lib.Config{Gain: 2, Level: 1}).Sum
	for _, level := range []int{1, 2} {
		sum += lib.Run(lib.Config{Gain: 2, Level: level, Scale: 3}).Sum
	}
	total, _ := lib.Stats([]int{sum, 3})
	hi, _ := lib.Split(total)
	_, lo := lib.Split(hi)
	println(lo)
}
