package node

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// EnvSensor synthesizes the coastal-monitoring measurements the paper's
// applications section motivates: water temperature and pressure (depth),
// modeled as slow sinusoidal drift plus measurement noise. Payload layout
// (big endian): uint32 sample counter, int16 temperature in centi-°C,
// uint16 pressure in millibar.
type EnvSensor struct {
	BaseTempC  float64
	BaseDepthM float64

	count uint32
	rng   *rand.Rand
}

// NewEnvSensor creates a sensor with the given statistics. seed fixes the
// noise stream for reproducible trials.
func NewEnvSensor(tempC, depthM float64, seed int64) *EnvSensor {
	return &EnvSensor{
		BaseTempC:  tempC,
		BaseDepthM: depthM,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// driftPeriod is the samples per full drift cycle; noiseStd the
// measurement noise, °C (and tens of millibar).
const driftPeriod, noiseStd = 480, 0.05

// PayloadSize is the wire size of one EnvSensor reading.
const PayloadSize = 8

// sample draws the next measurement and returns it quantized onto the
// wire grid (centi-°C, whole millibar) — the exact values a decoder of
// either payload format recovers. Both the v1 single-reading payload
// and the packed batch payload encode from these samples, so the two
// formats quantize identically.
func (s *EnvSensor) sample() Reading {
	phase := 2 * math.Pi * float64(s.count) / driftPeriod
	temp := s.BaseTempC + 0.5*math.Sin(phase) + s.rng.NormFloat64()*noiseStd
	// Hydrostatic pressure: 1 bar surface + ~0.0981 bar per meter.
	pressureMbar := 1000 + 98.1*s.BaseDepthM + 5*math.Sin(phase/3) + s.rng.NormFloat64()*noiseStd*10

	rd := Reading{
		Count:        s.count,
		TempC:        float64(int16(math.Round(temp*100))) / 100,
		PressureMbar: float64(uint16(math.Round(pressureMbar))),
	}
	s.count++
	return rd
}

// Read returns the next encoded reading (the v1 single-reading layout).
func (s *EnvSensor) Read() []byte {
	rd := s.sample()
	out := make([]byte, PayloadSize)
	binary.BigEndian.PutUint32(out[0:4], rd.Count)
	binary.BigEndian.PutUint16(out[4:6], uint16(int16(math.Round(rd.TempC*100))))
	binary.BigEndian.PutUint16(out[6:8], uint16(math.Round(rd.PressureMbar)))
	return out
}

// Reading decodes a payload produced by Read.
type Reading struct {
	Count        uint32
	TempC        float64
	PressureMbar float64
}

// DecodeReading parses an EnvSensor payload.
func DecodeReading(p []byte) (Reading, bool) {
	if len(p) != PayloadSize {
		return Reading{}, false
	}
	return Reading{
		Count:        binary.BigEndian.Uint32(p[0:4]),
		TempC:        float64(int16(binary.BigEndian.Uint16(p[4:6]))) / 100,
		PressureMbar: float64(binary.BigEndian.Uint16(p[6:8])),
	}, true
}
